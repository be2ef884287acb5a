package model

import "tokenpicker/internal/exec"

// This file implements speculative decoding — the paper's predict-then-verify
// idea lifted from attention rows to whole tokens. A cheap DraftSource
// proposes up to k continuation tokens; one BatchEngine pass advances the
// pending token plus all k drafts through the exact model together (k+1 rows,
// one weight sweep) and returns every position's true next-token logits; the
// longest-accepted-prefix rule keeps drafts only while the session's own
// sampler — fed the TRUE logits — reproduces them, so the emitted stream is
// bit-identical to non-speculative decoding for greedy and seeded sampling
// alike. Rejected positions are rolled back with Decoder.Rollback, which
// truncates dense/paged KV and the quantized side-car to the accepted length.

// DraftSource proposes draft continuation tokens for a speculative verify
// pass. history is the session's token stream — prompt plus every emitted
// token — whose LAST element is the pending token the verify pass consumes
// first; the source writes up to max proposed tokens continuing history into
// dst and returns how many it wrote. Draft must be deterministic in history
// (a verify pass that fails on storage pressure is retried and must propose
// the same tokens) and must not allocate on the steady path.
type DraftSource interface {
	Draft(dst, history []int, max int) int
}

// NgramDraft is the default, model-free draft source: prompt-lookup decoding.
// It finds the most recent earlier occurrence of the longest suffix of
// history (up to ngramMaxN tokens) and proposes the tokens that followed it —
// free to compute, surprisingly effective on natural text and on anything
// repetitive (code, templated output, the demo corpus), and useless exactly
// when it proposes nothing, costing only the bonus-token pass.
type NgramDraft struct{}

// ngramMaxN is the longest history suffix NgramDraft matches.
const ngramMaxN = 3

// Draft implements DraftSource.
func (d *NgramDraft) Draft(dst, history []int, max int) int {
	if max <= 0 || len(history) < 2 {
		return 0
	}
	for n := ngramMaxN; n >= 1; n-- {
		if n >= len(history) {
			continue
		}
		suffix := history[len(history)-n:]
		for start := len(history) - n - 1; start >= 0; start-- {
			match := true
			for j := 0; j < n; j++ {
				if history[start+j] != suffix[j] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			k := 0
			for k < max && start+n+k < len(history) {
				dst[k] = history[start+n+k]
				k++
			}
			return k
		}
	}
	return 0
}

// Emitter consumes the verified positions of a speculative pass in emission
// order. Each call receives the exact next-token logits of one position; the
// implementation samples with the session's own sampler (consuming RNG
// exactly as a non-speculative step would), emits the token, and reports it
// plus whether generation must stop (stop sequence hit, length reached). An
// interface rather than a closure so serving can store one per session and
// keep the steady-state pass allocation-free.
type Emitter interface {
	Emit(logits []float32) (token int, stop bool)
}

// SpecResult is the outcome of one verify pass.
type SpecResult struct {
	Drafted  int  // draft tokens submitted for verification
	Accepted int  // drafts the sampler reproduced (kept)
	Emitted  int  // tokens emitted: accepted drafts + the correction or bonus
	Stopped  bool // the emitter ended generation mid-pass
}

// SpecStats accumulates verify-pass accounting over a SpecDecoder's life.
type SpecStats struct {
	Drafted    int64 // draft tokens verified
	Accepted   int64 // drafts kept
	RolledBack int64 // drafts rejected (KV rows truncated): Drafted - Accepted
	Emitted    int64 // tokens emitted through the emitter
	Passes     int64 // verify passes completed
}

// AcceptanceRate returns Accepted/Drafted (0 when nothing was drafted).
func (s SpecStats) AcceptanceRate() float64 {
	if s.Drafted == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Drafted)
}

// SpecDecoder drives draft-and-verify generation for one decoder. Each pass:
// BeginEntry drafts up to k tokens behind the pending token, the caller runs
// them as one generation-phase entry in a BatchEngine step of its own (Step
// here, a runner iteration in the serving engine), and FinishEntry applies
// the longest-accepted-prefix rule, rolls the decoder back to the accepted
// length, and adapts k to the observed acceptance. k shrinks by one on any
// rejection and grows by one on a fully-accepted pass, bounded by [1, MaxK] —
// a session the draft source models well speculates deeper, one it models
// badly degrades to plain decoding (a 1-token verify entry is exactly a
// normal decode step).
type SpecDecoder struct {
	Dec   *Decoder
	Draft DraftSource // nil proposes nothing (every pass degenerates to plain decode)
	MaxK  int

	k       int
	buf     []int
	entries [1]BatchEntry
	stats   SpecStats
}

// NewSpecDecoder builds a speculative decoder over dec with draft window
// maxK (clamped to >= 1). draft may be nil.
func NewSpecDecoder(dec *Decoder, draft DraftSource, maxK int) *SpecDecoder {
	if maxK < 1 {
		maxK = 1
	}
	return &SpecDecoder{Dec: dec, Draft: draft, MaxK: maxK, k: maxK}
}

// CurK returns the current adaptive draft window.
func (sd *SpecDecoder) CurK() int {
	if sd.k < 1 {
		sd.k = sd.MaxK
		if sd.k < 1 {
			sd.k = 1
		}
	}
	return sd.k
}

// Stats returns the accumulated verify-pass accounting.
func (sd *SpecDecoder) Stats() SpecStats { return sd.stats }

// BeginEntry drafts up to min(CurK, maxDraft) tokens and returns the verify
// token sequence: history's pending last token followed by the drafts. The
// window is further clamped so the pass fits the context budget, and
// proposals outside the vocabulary (a buggy draft source must not panic the
// engine) truncate the draft at the first offender. The returned slice is
// owned by the SpecDecoder and valid until the next BeginEntry.
func (sd *SpecDecoder) BeginEntry(history []int, maxDraft int) []int {
	k := sd.CurK()
	if k > maxDraft {
		k = maxDraft
	}
	if lim := sd.Dec.P.Cfg.MaxSeq - sd.Dec.Len() - 1; k > lim {
		k = lim
	}
	if k < 0 {
		k = 0
	}
	if cap(sd.buf) < sd.MaxK+1 {
		sd.buf = make([]int, sd.MaxK+1)
	}
	sd.buf = sd.buf[:k+1]
	sd.buf[0] = history[len(history)-1]
	m := 0
	if k > 0 && sd.Draft != nil {
		m = sd.Draft.Draft(sd.buf[1:k+1], history, k)
	}
	V := sd.Dec.P.Cfg.VocabSize
	for i := 0; i < m; i++ {
		if t := sd.buf[1+i]; t < 0 || t >= V {
			m = i
			break
		}
	}
	return sd.buf[:1+m]
}

// FinishEntry applies the acceptance rule to a completed verify entry and
// rolls the decoder back to the accepted length. For each position in
// emission order the emitter samples from that position's TRUE logits: the
// sampled token is emitted unconditionally (on a draft mismatch it IS the
// correction — it came from the real distribution, so nothing is wasted),
// and the pass continues past position i only while the sample reproduced
// draft i. A fully-accepted pass emits a bonus token from the final row.
// Because the emitter consumes sampler RNG once per emitted token, in
// emission order, and checks stop/length before the next position, the
// emitted stream and the sampler state are bit-identical to non-speculative
// decoding — rejected rows never touch the RNG.
func (sd *SpecDecoder) FinishEntry(ent *BatchEntry, emit Emitter) SpecResult {
	toks := ent.Tokens
	m := len(toks) - 1
	n0 := sd.Dec.Len() - len(toks)
	V := sd.Dec.P.Cfg.VocabSize
	res := SpecResult{Drafted: m}
	for i := 0; i <= m; i++ {
		tok, stop := emit.Emit(ent.LogitsAll[i*V : (i+1)*V])
		res.Emitted++
		if stop {
			res.Stopped = true
			break
		}
		if i == m {
			break // bonus token emitted; the pass is exhausted
		}
		if tok != toks[i+1] {
			break // rejection: tok was the correction, drafts i+1.. are dead
		}
		res.Accepted++
	}
	// The emitted prefix is the valid consumed sequence: the pending token
	// plus the accepted drafts, with the last emitted token left pending for
	// the next pass. Everything past it is speculative garbage.
	sd.Dec.Rollback(n0 + res.Emitted)
	if m > 0 && !res.Stopped {
		if res.Accepted == m {
			if sd.k < sd.MaxK {
				sd.k++
			}
		} else if sd.k > 1 {
			sd.k--
		}
	}
	sd.stats.Drafted += int64(m)
	sd.stats.Accepted += int64(res.Accepted)
	sd.stats.RolledBack += int64(m - res.Accepted)
	sd.stats.Emitted += int64(res.Emitted)
	sd.stats.Passes++
	return res
}

// Step runs one complete standalone verify pass: draft, one batched
// multi-row forward pass through eng (gen is the generation kernel, ex the
// executor, both as in BatchEngine.Step), then acceptance and rollback.
// maxDraft additionally bounds the draft window (pass the remaining token
// budget minus one so a pass never drafts past the generation limit). On a
// storage error nothing was consumed and no RNG was drawn; the pass can be
// retried.
//
//topick:noalloc
func (sd *SpecDecoder) Step(eng *BatchEngine, gen Kernel, ex exec.Executor, history []int, maxDraft int, emit Emitter) (SpecResult, error) {
	sd.entries[0] = BatchEntry{Dec: sd.Dec, Tokens: sd.BeginEntry(history, maxDraft), NeedLogits: true}
	eng.Step(sd.entries[:], gen, ex)
	if err := sd.entries[0].Err; err != nil {
		return SpecResult{}, err
	}
	return sd.FinishEntry(&sd.entries[0], emit), nil
}
