package model

import (
	"fmt"
	"math"

	"tokenpicker/internal/exec"
	"tokenpicker/internal/tensor"
)

// BatchEntry is one decoder's contribution to a BatchEngine step: a decode
// row (one generation or replay token), a verify pass, or a prefill chunk
// (several consecutive prompt tokens advanced in layer lockstep). A serving
// runner hands one entry per iteration to BatchEngine.Step.
type BatchEntry struct {
	// Dec is the session's decoder; its KV caches receive the new rows and
	// its consumed-token count advances by len(Tokens) on success. A decoder
	// may appear in at most one entry per Step.
	Dec *Decoder
	// Tokens are consumed in order starting at Dec.Len(). Decode entries
	// carry exactly one token; prefill entries carry a chunk of the prompt.
	Tokens []int
	// Prefill marks prompt-phase entries: their rows attend with the exact
	// kernel (the paper prunes only the memory-bound generation phase) and
	// may number more than one. A step's entries are all prefill or all
	// generation-phase.
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
	// step, while the rest of the step proceeded. The caller retries,
	// preempts, or finishes that session by its own policy.
	Err error
}

// BatchEngine is the transformer forward pass: one Step advances every
// entry's rows through the layers together, and every stage of a layer runs
// on the step's executor. Attention is submitted as one multi-row AttendBatch
// per layer through the phase's kernel, so the executor sees rows×heads
// tasks. The dense stages — Q/K/V (one Run for all three), Wo, W1 with its
// GELU, and W2 — run on the Params' packed panels (tensor.Panels) and split
// by the step's row count: a single row cuts each matrix's output rows into
// blocks at multiples of tensor.PanelRows (8), several rows go out as
// contiguous blocks of whole rows. Either way each output element is the same sum tensor.MatVec
// computes in a whole-matrix, row-at-a-time pass; LayerNorm, one reduction per
// row, stays on the caller. A row's arithmetic does not depend
// on which other rows share its step or on the executor's width, so logits
// and KV rows are bit-identical however a token sequence is split into steps
// and entries — one row at a time (Decoder.Step), a prompt chunk, a verify
// pass, or several decoders' rows at once.
//
// The engine owns the forward-pass scratch; it is not goroutine-safe and must
// not be shared between concurrent Steps. Steady-state Step calls allocate
// nothing once the scratch has grown to the workload's row count.
type BatchEngine struct {
	p      *Params
	w      *packedParams // p's matrices in panel layout, shared by every engine over p
	exact  ExactKernel
	slopes []float32

	rows []batchRow

	// Row-batched scratch, rows*d (or rows*FFNDim) packed row-major.
	x, h, q, k, v, attnOut, tmp []float32
	ffnH                        []float32
	logits                      []float32

	// The dense stage handed to the executor, refilled per stage.
	stage denseStage

	// Per-layer attention views, refilled each layer without allocating.
	ns         []int
	keys, vals []tensor.RowSource

	// Row-group scheduling for multi-token (verify) entries: one run length
	// per generation-phase entry that advances, handed to AttendBatch only
	// when some entry carries more than one row (see AttendBatch.Groups).
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
	e := &BatchEngine{p: p, w: p.panels(), slopes: make([]float32, p.Cfg.Heads)}
	for h := range e.slopes {
		e.slopes[h] = p.Cfg.AlibiSlope(h)
	}
	return e
}

// Step advances every entry by its tokens in one batched iteration. The
// entries are all generation-phase (decode or verify), attending through gen
// (nil means exact), or all prefill, attending exactly; a step mixing the two
// panics. ex schedules the rows×heads attention tasks and the dense stages'
// blocks (nil = serial). Per-entry storage failures land in BatchEntry.Err;
// the rest of the step is unaffected.
//
//topick:noalloc
func (e *BatchEngine) Step(entries []BatchEntry, gen Kernel, ex exec.Executor) {
	cfg := e.p.Cfg
	e.rows = e.rows[:0]
	e.groups = e.groups[:0]
	grouped := false
	for i := range entries {
		ent := &entries[i]
		ent.Logits, ent.LogitsAll, ent.Err = nil, nil, nil
		if ent.Dec == nil || len(ent.Tokens) == 0 {
			panic("model: batch entry needs a decoder and at least one token")
		}
		if ent.Dec.P != e.p {
			panic("model: batch entry decoder built from different params")
		}
		if ent.Prefill != entries[0].Prefill {
			panic("model: a step mixes decode and prefill entries")
		}
		if ent.Prefill && ent.Verify {
			panic("model: a verify entry cannot be prefill")
		}
		if !ent.Prefill && !ent.Verify && len(ent.Tokens) != 1 {
			panic(fmt.Sprintf("model: decode entry carries %d tokens, want 1", len(ent.Tokens)))
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
			e.groups = append(e.groups, len(ent.Tokens))
			grouped = grouped || len(ent.Tokens) > 1
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
	e.k = tensor.Grow(e.k, R*d)
	e.v = tensor.Grow(e.v, R*d)
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
	kernel := gen
	if kernel == nil || entries[0].Prefill {
		kernel = &e.exact
	}

	// Multi-token verify entries put several rows of one session — one KV
	// cache, one quantized side-car — into the generation-phase batch; group
	// those rows so same-head tasks of one session never run concurrently.
	// With no such entry (the common case) and for every prefill step,
	// groups stays nil and scheduling is the plain per-(row, head) layout.
	var groups []int
	if grouped {
		groups = e.groups
	}

	for l, b := range e.p.Blocks {
		w := &e.w.blocks[l]
		// Attention sublayer: QKV projections, KV rows appended to each
		// row's own caches, then one multi-row AttendBatch.
		for r := 0; r < R; r++ {
			tensor.LayerNorm(e.h[r*d:(r+1)*d], e.x[r*d:(r+1)*d], b.Ln1G, b.Ln1B, cfg.Eps)
		}
		e.dense(ex, R, e.h, false, gemv{w.wq, b.Bq, e.q}, gemv{w.wk, b.Bk, e.k}, gemv{w.wv, b.Bv, e.v})
		for r, row := range e.rows {
			dec := entries[row.entry].Dec
			for hIdx := 0; hIdx < H; hIdx++ {
				copy(dec.caches[l][hIdx].K.Row(row.pos), e.k[r*d+hIdx*hd:r*d+(hIdx+1)*hd])
				copy(dec.caches[l][hIdx].V.Row(row.pos), e.v[r*d+hIdx*hd:r*d+(hIdx+1)*hd])
			}
			copy(e.keys[r*H:(r+1)*H], dec.keySrc[l])
			copy(e.vals[r*H:(r+1)*H], dec.valSrc[l])
		}
		kernel.AttendLayer(AttendBatch{
			Layer:    l,
			Rows:     R,
			Ns:       e.ns,
			Heads:    H,
			HeadDim:  hd,
			Scale:    scale,
			Slopes:   e.slopes,
			Q:        e.q[:R*d],
			Out:      e.attnOut[:R*d],
			Keys:     e.keys[:R*H],
			Vals:     e.vals[:R*H],
			Exec:     ex,
			Groups:   groups,
			groupRun: &e.groupRun,
		})
		e.dense(ex, R, e.attnOut, false, gemv{w.wo, b.Bo, e.tmp})
		tensor.Add(e.x, e.x, e.tmp)

		// FFN sublayer.
		for r := 0; r < R; r++ {
			tensor.LayerNorm(e.h[r*d:(r+1)*d], e.x[r*d:(r+1)*d], b.Ln2G, b.Ln2B, cfg.Eps)
		}
		e.dense(ex, R, e.h, true, gemv{w.w1, b.B1, e.ffnH})
		e.dense(ex, R, e.ffnH, false, gemv{w.w2, b.B2, e.tmp})
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
		e.w.emb.MatVecRange(lg, 0, V, e.h[r*d:(r+1)*d])
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

// gemv is one matrix of a dense stage: dst[r] = W·src[r] + bias for every
// row r of the step, W packed in w.
type gemv struct {
	w         *tensor.Panels
	bias, dst []float32
}

// denseStage is the exec.Tasks adapter of one dense stage: up to three
// matrices over the same src rows, cut into parts blocks each. Task t is
// block t%parts of matrix t/parts. With one row a block is a run of output
// rows starting and ending at multiples of tensor.PanelRows (the last block
// takes the remainder), so every block is whole panels; with several rows a
// block is a contiguous run of whole rows. Each output element is the same
// sum either way, and blocks write disjoint slices of dst, so any schedule
// gives the serial bits.
type denseStage struct {
	g           [3]gemv
	rows, parts int
	src         []float32
	gelu        bool // apply GELU to each output block (after W1)
}

// Do implements exec.Tasks.
//
//topick:noalloc
func (s *denseStage) Do(t, _ int) {
	g := &s.g[t/s.parts]
	blk := t % s.parts
	m := g.w.Mat
	r0, r1, o0, o1 := 0, s.rows, 0, m.Rows
	if s.rows == 1 {
		panels := m.Rows / tensor.PanelRows
		o0 = tensor.PanelRows * (blk * panels / s.parts)
		if blk+1 < s.parts {
			o1 = tensor.PanelRows * ((blk + 1) * panels / s.parts)
		}
	} else {
		r0, r1 = blk*s.rows/s.parts, (blk+1)*s.rows/s.parts
	}
	bias := g.bias[o0:o1]
	for r := r0; r < r1; r++ {
		out := g.dst[r*m.Rows+o0 : r*m.Rows+o1]
		g.w.MatVecRange(out, o0, o1, s.src[r*m.Cols:(r+1)*m.Cols])
		tensor.Add(out, out, bias)
		if s.gelu {
			tensor.GELU(out)
		}
	}
}

// dense runs one stage — up to three matrices of one output height, over the
// rows of src — inline when ex is nil or one slot wide, else as one Run of
// len(gs)×parts tasks, parts = min(width, rows) for several rows and
// min(width, whole panels) for one.
func (e *BatchEngine) dense(ex exec.Executor, rows int, src []float32, gelu bool, gs ...gemv) {
	s := &e.stage
	n := copy(s.g[:], gs)
	s.rows, s.src, s.gelu = rows, src, gelu
	s.parts = 1
	if ex != nil {
		if rows == 1 {
			s.parts = max(1, min(ex.Width(), s.g[0].w.Mat.Rows/tensor.PanelRows))
		} else {
			s.parts = min(ex.Width(), rows)
		}
	}
	if s.parts == 1 {
		for t := 0; t < n; t++ {
			s.Do(t, 0)
		}
	} else {
		ex.Run(n*s.parts, s)
	}
}
