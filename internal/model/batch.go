package model

import (
	"fmt"
	"math"

	"tokenpicker/internal/exec"
	"tokenpicker/internal/tensor"
)

// BatchEntry is one session's contribution to a batched iteration step: a
// decode row (one generation or replay token) or a prefill chunk (several
// consecutive prompt tokens advanced in layer lockstep). The iteration
// scheduler in internal/serve assembles one entry per runnable session and
// hands the whole set to BatchEngine.Step.
type BatchEntry struct {
	// Dec is the session's decoder; its KV caches receive the new rows and
	// its consumed-token count advances by len(Tokens) on success. A decoder
	// may appear in at most one entry per Step.
	Dec *Decoder
	// Tokens are consumed in order starting at Dec.Len(). Decode entries
	// carry exactly one token; prefill entries carry a chunk of the prompt.
	Tokens []int
	// Prefill marks prompt-phase entries: their rows attend with the exact
	// kernel (the paper prunes only the memory-bound generation phase), may
	// number more than one, and must come after every decode entry so the
	// engine can split the layer batch into two contiguous row ranges.
	Prefill bool
	// NeedLogits requests next-token logits after the entry's last token
	// (decode rows sampling a token; the prefill chunk that completes a
	// prompt). Rows that skip it also skip the final layer norm and the
	// vocabulary projection — the largest matmul of the step.
	NeedLogits bool
	// Verify marks a speculative-verification entry: a generation-phase
	// entry whose Tokens are the session's pending token followed by drafted
	// continuation tokens, all advanced in one pass. Unlike plain decode
	// entries it may carry several tokens, and with NeedLogits set the
	// engine exposes every position's next-token logits through LogitsAll so
	// the caller can apply the longest-accepted-prefix rule and roll the
	// decoder back past the rejection point. Verify entries are decode-phase
	// (they use the generation kernel) and cannot be Prefill.
	Verify bool

	// Logits is the output when NeedLogits was set: a view into engine-owned
	// storage, valid until the next Step. Nil when Err is set. For a Verify
	// entry this is the final position's row (the bonus-token logits).
	Logits []float32
	// LogitsAll is the Verify-entry output when NeedLogits was set: the
	// next-token logits of every position, len(Tokens) rows of VocabSize
	// flattened row-major (row i answers "what follows Tokens[0..i]?"). A
	// view into engine-owned storage, valid until the next Step.
	LogitsAll []float32
	// Err reports a per-entry storage failure (ErrContextFull, or a pool
	// allocation error): the entry consumed nothing and took no part in the
	// step, while the rest of the batch proceeded. The caller retries,
	// preempts, or finishes that session by its own policy.
	Err error
}

// BatchEngine is the transformer forward pass: one Step advances every
// entry's rows through the layers together. The projection and FFN stages run
// one tensor.MatVec per row; attention is submitted as one multi-row
// AttendBatch per layer per phase kernel, so the executor sees rows×heads
// tasks. A row's arithmetic does not depend on which other rows share its
// step, so logits and KV rows are bit-identical however a token sequence is
// split into steps and entries — one row at a time (Decoder.Step), a prompt
// chunk, or many sessions' rows at once.
//
// The engine owns the forward-pass scratch; it is not goroutine-safe and must
// not be shared between concurrent Steps. Steady-state Step calls allocate
// nothing once the scratch has grown to the workload's row count.
type BatchEngine struct {
	p      *Params
	exact  ExactKernel
	slopes []float32

	rows []batchRow

	// Row-batched scratch, rows*d (or rows*FFNDim) packed row-major.
	x, h, q, attnOut, tmp []float32
	ffnH                  []float32
	logits                []float32

	// Per-layer attention views, refilled each layer without allocating.
	ns         []int
	keys, vals []tensor.RowSource

	// Row-group scheduling for multi-token (verify) entries: one run length
	// per decode entry, handed to the generation-phase AttendBatch only when
	// some entry carries more than one row (see AttendBatch.Groups).
	groups   []int
	groupRun groupedTasks
}

// batchRow is one query row of the current step.
type batchRow struct {
	entry int
	pos   int // context position this row occupies
	token int
}

// NewBatchEngine builds an engine over params. Entries passed to Step must
// use decoders built from the same params.
func NewBatchEngine(p *Params) *BatchEngine {
	e := &BatchEngine{p: p, slopes: make([]float32, p.Cfg.Heads)}
	for h := range e.slopes {
		e.slopes[h] = p.Cfg.AlibiSlope(h)
	}
	return e
}

// Step advances every entry by its tokens in one batched iteration. gen is
// the generation-phase attention kernel shared by all decode rows (nil means
// exact); prefill rows always use exact attention. ex schedules the
// rows×heads attention tasks (nil = serial). Decode entries must precede
// prefill entries. Per-entry storage failures land in BatchEntry.Err; the
// rest of the batch is unaffected.
//
//topick:noalloc
func (e *BatchEngine) Step(entries []BatchEntry, gen Kernel, ex exec.Executor) {
	cfg := e.p.Cfg
	e.rows = e.rows[:0]
	decodeRows := 0
	sawPrefill := false
	for i := range entries {
		ent := &entries[i]
		ent.Logits, ent.LogitsAll, ent.Err = nil, nil, nil
		if ent.Dec == nil || len(ent.Tokens) == 0 {
			panic("model: batch entry needs a decoder and at least one token")
		}
		if ent.Dec.P != e.p {
			panic("model: batch entry decoder built from different params")
		}
		if ent.Prefill {
			if ent.Verify {
				panic("model: a verify entry cannot be prefill")
			}
			sawPrefill = true
		} else {
			if sawPrefill {
				panic("model: decode entries must precede prefill entries")
			}
			if len(ent.Tokens) != 1 && !ent.Verify {
				panic(fmt.Sprintf("model: decode entry carries %d tokens, want 1", len(ent.Tokens)))
			}
		}
		for _, t := range ent.Tokens {
			if t < 0 || t >= cfg.VocabSize {
				panic(fmt.Sprintf("model: token %d out of vocab range", t))
			}
		}
		n := ent.Dec.n
		if n+len(ent.Tokens) > cfg.MaxSeq {
			//topick:alloc-ok error construction on the context-full rejection path
			ent.Err = fmt.Errorf("%w: %d tokens (max %d)", ErrContextFull, n, cfg.MaxSeq)
			continue
		}
		if err := ent.Dec.ensureRows(n + len(ent.Tokens)); err != nil {
			ent.Err = err
			continue
		}
		for j, t := range ent.Tokens {
			e.rows = append(e.rows, batchRow{entry: i, pos: n + j, token: t})
		}
		if !ent.Prefill {
			decodeRows += len(ent.Tokens)
		}
	}
	R := len(e.rows)
	if R == 0 {
		return
	}

	d := cfg.DModel()
	hd := cfg.HeadDim
	H := cfg.Heads
	scale := float32(1 / math.Sqrt(float64(hd)))
	e.x = tensor.Grow(e.x, R*d)
	e.h = tensor.Grow(e.h, R*d)
	e.q = tensor.Grow(e.q, R*d)
	e.attnOut = tensor.Grow(e.attnOut, R*d)
	e.tmp = tensor.Grow(e.tmp, R*d)
	e.ffnH = tensor.Grow(e.ffnH, R*cfg.FFNDim())
	if cap(e.ns) < R {
		e.ns = make([]int, R)
		e.keys = make([]tensor.RowSource, R*H)
		e.vals = make([]tensor.RowSource, R*H)
	}
	e.ns = e.ns[:R]

	for r, row := range e.rows {
		copy(e.x[r*d:(r+1)*d], e.p.TokEmb.Row(row.token))
		e.ns[r] = row.pos + 1
	}
	genKernel := gen
	if genKernel == nil {
		genKernel = &e.exact
	}

	// Multi-token verify entries put several rows of one session — one KV
	// cache, one quantized side-car — into the generation-phase batch; group
	// those rows so same-head tasks of one session never run concurrently.
	// With no such entry (the common case) groups stays nil and scheduling
	// is exactly the per-(row, head) layout of plain iteration batching.
	e.groups = e.groups[:0]
	grouped := false
	for i := range entries {
		ent := &entries[i]
		if ent.Prefill || ent.Err != nil {
			continue
		}
		e.groups = append(e.groups, len(ent.Tokens))
		if len(ent.Tokens) > 1 {
			grouped = true
		}
	}
	var groups []int
	if grouped {
		groups = e.groups
	}

	for l, b := range e.p.Blocks {
		// Attention sublayer: per-row QKV projections, KV rows appended to
		// each row's own caches, then one multi-row AttendBatch per phase.
		for r := 0; r < R; r++ {
			tensor.LayerNorm(e.h[r*d:(r+1)*d], e.x[r*d:(r+1)*d], b.Ln1G, b.Ln1B, cfg.Eps)
		}
		project(e.q, b.Wq, b.Bq, e.h, R)
		project(e.tmp, b.Wk, b.Bk, e.h, R)
		for r, row := range e.rows {
			dec := entries[row.entry].Dec
			for hIdx := 0; hIdx < H; hIdx++ {
				copy(dec.caches[l][hIdx].K.Row(row.pos), e.tmp[r*d+hIdx*hd:r*d+(hIdx+1)*hd])
			}
		}
		project(e.tmp, b.Wv, b.Bv, e.h, R)
		for r, row := range e.rows {
			dec := entries[row.entry].Dec
			for hIdx := 0; hIdx < H; hIdx++ {
				copy(dec.caches[l][hIdx].V.Row(row.pos), e.tmp[r*d+hIdx*hd:r*d+(hIdx+1)*hd])
			}
			copy(e.keys[r*H:(r+1)*H], dec.keySrc[l])
			copy(e.vals[r*H:(r+1)*H], dec.valSrc[l])
		}
		e.attend(l, 0, decodeRows, scale, genKernel, ex, groups)
		e.attend(l, decodeRows, R, scale, &e.exact, ex, nil)
		project(e.tmp, b.Wo, b.Bo, e.attnOut, R)
		tensor.Add(e.x, e.x, e.tmp)

		// FFN sublayer.
		for r := 0; r < R; r++ {
			tensor.LayerNorm(e.h[r*d:(r+1)*d], e.x[r*d:(r+1)*d], b.Ln2G, b.Ln2B, cfg.Eps)
		}
		project(e.ffnH, b.W1, b.B1, e.h, R)
		tensor.GELU(e.ffnH)
		project(e.tmp, b.W2, b.B2, e.ffnH, R)
		tensor.Add(e.x, e.x, e.tmp)
	}

	// Vocabulary projection for the rows that sample from it. Each
	// requesting entry's logits view stays valid until the next Step.
	V := cfg.VocabSize
	needed := 0
	for i := range entries {
		if entries[i].Err == nil && entries[i].NeedLogits {
			if entries[i].Verify {
				needed += len(entries[i].Tokens)
			} else {
				needed++
			}
		}
	}
	e.logits = tensor.Grow(e.logits, needed*V)
	out := 0
	for r, row := range e.rows {
		ent := &entries[row.entry]
		if !ent.NeedLogits {
			continue
		}
		if !ent.Verify && row.pos != ent.Dec.n+len(ent.Tokens)-1 {
			continue
		}
		tensor.LayerNorm(e.h[r*d:(r+1)*d], e.x[r*d:(r+1)*d], e.p.LnFG, e.p.LnFB, cfg.Eps)
		lg := e.logits[out*V : (out+1)*V]
		tensor.MatVec(lg, e.p.TokEmb, e.h[r*d:(r+1)*d])
		ent.Logits = lg
		if ent.Verify {
			// An entry's rows are consecutive in row order, so its logits
			// rows land contiguously; extend the flat view one row at a time.
			if row.pos == ent.Dec.n {
				ent.LogitsAll = e.logits[out*V : out*V]
			}
			ent.LogitsAll = ent.LogitsAll[:len(ent.LogitsAll)+V]
		}
		out++
	}

	for i := range entries {
		if entries[i].Err == nil {
			entries[i].Dec.n += len(entries[i].Tokens)
		}
	}
}

// project computes dst[r] = m*src[r] + bias for each of the rows vectors
// packed back to back in src.
func project(dst []float32, m *tensor.Mat, bias, src []float32, rows int) {
	for r := 0; r < rows; r++ {
		out := dst[r*m.Rows : (r+1)*m.Rows]
		tensor.MatVec(out, m, src[r*m.Cols:(r+1)*m.Cols])
		tensor.Add(out, out, bias)
	}
}

// attend submits rows [lo, hi) as one multi-row AttendBatch through kernel.
func (e *BatchEngine) attend(layer, lo, hi int, scale float32, kernel Kernel, ex exec.Executor, groups []int) {
	if hi <= lo {
		return
	}
	cfg := e.p.Cfg
	d := cfg.DModel()
	kernel.AttendLayer(AttendBatch{
		Layer:    layer,
		Rows:     hi - lo,
		Ns:       e.ns[lo:hi],
		Heads:    cfg.Heads,
		HeadDim:  cfg.HeadDim,
		Scale:    scale,
		Slopes:   e.slopes,
		Q:        e.q[lo*d : hi*d],
		Out:      e.attnOut[lo*d : hi*d],
		Keys:     e.keys[lo*cfg.Heads : hi*cfg.Heads],
		Vals:     e.vals[lo*cfg.Heads : hi*cfg.Heads],
		Exec:     ex,
		Groups:   groups,
		groupRun: &e.groupRun,
	})
}
