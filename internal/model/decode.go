package model

import (
	"errors"
	"fmt"

	"tokenpicker/internal/exec"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/tensor"
)

// ErrContextFull reports that a decoder has consumed MaxSeq tokens and
// cannot accept more. Serving code uses it to finish or evict a session
// instead of crashing a worker.
var ErrContextFull = errors.New("model: context full")

// AttendBatch is one batched slab of attention work for a single layer: one
// or more query rows, each carrying every head's query/output slice plus its
// own KV row sources and context length. A row is one (sequence, position)
// attention instance — a library decode step is one row; a prefill chunk or
// a verify pass is several rows of one sequence, and a multi-entry decode
// step one row per decoder.
//
// Tasks are (row, head) pairs, indexed row-major: task t = row*Heads + head.
// Tasks are independent — task t reads TaskQ(t)/Keys[t]/Vals[t] and writes
// TaskOut(t) only — so a kernel may run them in any order or in parallel on
// Exec without changing a single output bit.
type AttendBatch struct {
	Layer   int   // layer index (kernels with per-layer state key on it)
	Rows    int   // query rows (>= 1)
	Ns      []int // per-row context length (len == Rows); row r's query is position Ns[r]-1
	Heads   int
	HeadDim int
	Scale   float32   // score scale, 1/sqrt(HeadDim)
	Slopes  []float32 // per-head ALiBi slope: raw score_i -= Slopes[h]*(n-1-i)
	// Q and Out are packed (row, head)-major: task t owns
	// [t*HeadDim, (t+1)*HeadDim).
	Q, Out []float32
	// Keys and Vals hold each task's KV cache view, indexed row*Heads+head;
	// rows beyond the task's context length are stale.
	Keys, Vals []tensor.RowSource
	// Exec schedules the tasks; nil means serial. It is the step's
	// executor, which runs the layer's dense stages too. Kernels must route
	// every task through Run so the executor choice is honoured.
	Exec exec.Executor
	// Groups, when non-nil, partitions the rows into consecutive runs that
	// share mutable per-(layer, head) cache state: group g spans Groups[g]
	// consecutive rows (the sum over Groups is Rows). The speculative-verify
	// path puts several positions of ONE session in one batch; those rows
	// share KV caches and quantized side-cars, so their same-head tasks must
	// not run concurrently. Run then schedules group×head super-tasks —
	// same-group same-head rows execute sequentially in ascending row order
	// on one slot; everything else still parallelizes. Task indexing and
	// kernel outputs are unchanged: quantized side-car syncs are
	// path-independent (the shared scale depends only on the running max),
	// so grouped execution stays bit-identical to the serial reference.
	Groups []int
	// groupRun is the caller-provided scratch for grouped scheduling (the
	// serving engine presets it so steady-state verify steps allocate
	// nothing); Run lazily allocates one when Groups is set without it.
	groupRun *groupedTasks
}

// NumTasks returns the number of independent (row, head) attention tasks.
func (b *AttendBatch) NumTasks() int { return b.Rows * b.Heads }

// TaskN returns the context length of task t's row: attention spans rows
// [0, TaskN(t)) of Keys[t]/Vals[t] and the query sits at position TaskN(t)-1.
func (b *AttendBatch) TaskN(t int) int { return b.Ns[t/b.Heads] }

// TaskSlope returns task t's ALiBi slope (slopes are per head, shared by
// every row).
func (b *AttendBatch) TaskSlope(t int) float32 { return b.Slopes[t%b.Heads] }

// TaskQ returns task t's query slice.
func (b *AttendBatch) TaskQ(t int) []float32 {
	return b.Q[t*b.HeadDim : (t+1)*b.HeadDim]
}

// TaskOut returns task t's output slice.
func (b *AttendBatch) TaskOut(t int) []float32 {
	return b.Out[t*b.HeadDim : (t+1)*b.HeadDim]
}

// Width returns the number of scratch slots the batch's executor may use.
func (b *AttendBatch) Width() int {
	if b.Exec == nil {
		return 1
	}
	return b.Exec.Width()
}

// Run schedules one task per (row, head) pair on the batch's executor; the
// work-stealing pool spreads rows×heads over its slots, so wide multi-row
// batches keep every core busy even on few-head models. When Groups is set,
// scheduling switches to group×head super-tasks so rows sharing cache state
// never race (see Groups).
func (b *AttendBatch) Run(tasks exec.Tasks) {
	if b.Groups != nil {
		gr := b.groupRun
		if gr == nil {
			//topick:alloc-ok grouped verify path only; nil-Groups decode batches never reach this
			gr = &groupedTasks{}
		}
		// Copy the fields rather than retaining b: storing the batch pointer
		// would make every by-value AttendBatch parameter escape to the heap,
		// breaking the zero-alloc decode path even when Groups is nil.
		gr.groups = b.Groups
		gr.heads = b.Heads
		gr.inner = tasks
		n := len(b.Groups) * b.Heads
		if b.Exec == nil {
			exec.Serial{}.Run(n, gr)
		} else {
			b.Exec.Run(n, gr)
		}
		gr.inner = nil
		gr.groups = nil
		return
	}
	if b.Exec == nil {
		exec.Serial{}.Run(b.NumTasks(), tasks)
		return
	}
	b.Exec.Run(b.NumTasks(), tasks)
}

// groupedTasks adapts a kernel's per-(row, head) tasks to group×head
// super-tasks: super-task t covers group t/heads, head t%heads, and runs that
// group's rows in ascending order on one slot — the serialization that keeps
// rows sharing a cache side-car race-free.
type groupedTasks struct {
	groups []int
	heads  int
	inner  exec.Tasks
}

// Do implements exec.Tasks.
func (g *groupedTasks) Do(t, slot int) {
	grp, head := t/g.heads, t%g.heads
	row := 0
	for i := 0; i < grp; i++ {
		row += g.groups[i]
	}
	for i := 0; i < g.groups[grp]; i++ {
		g.inner.Do((row+i)*g.heads+head, slot)
	}
}

// Kernel computes one layer's attention for a batch of query rows.
// Implementations range from exact softmax to the Token-Picker estimator.
//
// AttendLayer receives the whole layer as a batch and must produce, for each
// (row, head) task, exactly the output a task-at-a-time serial evaluation
// would: per-task work goes through batch.Run so the configured executor can
// spread rows×heads over cores, per-slot scratch keeps concurrent tasks from
// sharing mutable state, and any cross-task accumulation (statistics,
// SpAtten importance) is sharded per slot or merged in deterministic task
// order. Multi-row batches may mix rows from different sequences, and a
// serving runner's kernel attends a different session from one iteration to
// the next, so kernels eligible for serving must not keep per-sequence state
// across calls beyond cache-owned side-cars.
type Kernel interface {
	AttendLayer(batch AttendBatch)
}

// AttendOne runs a single-head attention instance through k: a one-head
// batch on the serial executor. Tests and experiment probes use it; the
// decoder always submits whole layers.
func AttendOne(k Kernel, out, q []float32, keys, vals tensor.RowSource, n int, scale, slope float32, layer int) {
	k.AttendLayer(AttendBatch{
		Layer:   layer,
		Rows:    1,
		Ns:      []int{n},
		Heads:   1,
		HeadDim: len(q),
		Scale:   scale,
		Slopes:  []float32{slope},
		Q:       q,
		Out:     out,
		Keys:    []tensor.RowSource{keys},
		Vals:    []tensor.RowSource{vals},
	})
}

// ExactKernel is the reference full-softmax attention used during the prompt
// phase and by the float baseline.
type ExactKernel struct {
	slots  []exactSlot
	runner exactRunner
}

// exactSlot is one executor slot's scratch.
type exactSlot struct {
	scores []float32
	probs  []float32
}

// exactRunner adapts the kernel to exec.Tasks without per-call allocation.
type exactRunner struct {
	k *ExactKernel
	b AttendBatch
}

// Do implements exec.Tasks.
func (r *exactRunner) Do(t, slot int) { r.k.attendTask(&r.b, t, slot) }

// AttendLayer implements Kernel with exact float32 softmax attention.
func (k *ExactKernel) AttendLayer(batch AttendBatch) {
	for len(k.slots) < batch.Width() {
		k.slots = append(k.slots, exactSlot{})
	}
	k.runner.k = k
	k.runner.b = batch
	batch.Run(&k.runner)
}

func (k *ExactKernel) attendTask(b *AttendBatch, t, slot int) {
	s := &k.slots[slot]
	n := b.TaskN(t)
	s.scores = tensor.Grow(s.scores, n)
	s.probs = tensor.Grow(s.probs, n)
	scores := s.scores[:n]
	probs := s.probs[:n]
	exactScores(scores, b.TaskQ(t), b.Keys[t], b.Scale, b.TaskSlope(t))
	tensor.Softmax(probs, scores)
	weightedSum(b.TaskOut(t), probs, b.Vals[t])
}

// exactScores writes the raw attention score of every key in [0, len(scores)):
// scores[i] = scale*(q·keys.Row(i)) - slope*(n-1-i). The dots run through
// tensor.DotRows one contiguous span of keys at a time; each sums its
// products in ascending order, so the bits equal the one-key-at-a-time loop.
func exactScores(scores, q []float32, keys tensor.RowSource, scale, slope float32) {
	n := len(scores)
	for i := 0; i < n; {
		span, m := spanAt(keys, i, n, len(q))
		tensor.DotRows(scores[i:i+m], q, span)
		i += m
	}
	for i, a := range scores {
		scores[i] = float32(scale*a) - float32(slope*float32(n-1-i))
	}
}

// weightedSum computes out = sum_i probs[i]*vals.Row(i) through
// tensor.AxpyRows, one contiguous span of values at a time. Each out[j]
// accumulates in ascending i, in the order of a row-at-a-time Axpy.
func weightedSum(out, probs []float32, vals tensor.RowSource) {
	clear(out)
	n := len(probs)
	for i := 0; i < n; {
		span, m := spanAt(vals, i, n, len(out))
		tensor.AxpyRows(out, probs[i:i+m], span)
		i += m
	}
}

// spanAt returns rows [i, i+m) of src, width d each, as one slice: m is the
// most rows, up to n-i, that src.Span(i) holds. A span shorter than one row
// panics, since the caller's loop would not advance.
func spanAt(src tensor.RowSource, i, n, d int) ([]float32, int) {
	span := src.Span(i)
	m := min(n-i, len(span)/d)
	if m < 1 {
		panic(fmt.Sprintf("model: span at row %d holds %d floats, under one row of %d", i, len(span), d))
	}
	return span[:m*d], m
}

// Scores computes the raw attention scores without the softmax; experiment
// code uses this to inspect distributions (paper Fig. 3).
func Scores(q []float32, keys tensor.RowSource, n int, scale, slope float32) []float32 {
	scores := make([]float32, n)
	exactScores(scores, q, keys, scale, slope)
	return scores
}

// KVCache is the per-(layer, head) key or value store of a decoder session.
// Rows are HeadDim wide; row i is written once (when token i is consumed)
// and read by every later attention call. Implementations may keep rows
// dense or lease fixed-size blocks from a shared pool.
type KVCache interface {
	tensor.RowSource
	// EnsureLen makes rows [0, n) addressable, acquiring storage as
	// needed, and guarantees the rows it newly covers — from the cache's
	// length (the largest n ensured since the last Truncate, which caps it)
	// up to n-1, and row n-1 in any case — are privately writable: callers
	// write rows strictly append-only (one row or a whole chunk right after
	// EnsureLen), so implementations backed by shared storage — e.g. prefix
	// blocks adopted from a serving pool — copy-on-write the affected
	// storage here, before the writes land. It returns ErrContextFull when
	// n exceeds the session's context budget, or a pool-specific error when
	// storage is exhausted. Rows made addressable by a failed call may
	// remain allocated.
	EnsureLen(n int) error
	// Truncate drops rows [n, ...) but keeps the cache usable: Truncate(0)
	// clears the cache for a new sequence (pooled implementations return all
	// their blocks), a partial truncate rolls the sequence back to n rows
	// (speculative-decoding rejection), releasing whole trailing blocks and
	// keeping the quantized side-car's incremental invariants intact. Rows
	// [0, n) must remain exactly as written.
	Truncate(n int)
	// Release returns all storage; the cache must not be used afterwards.
	Release()
}

// CacheProvider allocates the 2*Layers*Heads KV caches behind a decoder.
// The serving engine installs a block-paged pooled provider; the default
// provider grows dense buffers on demand.
type CacheProvider interface {
	NewKVCache(maxSeq, headDim int) KVCache
}

// denseCache is the default KVCache: a dense buffer that starts small and
// doubles up to maxSeq rows, so short sessions never pay for the full
// context window. It carries a quantized side-car (fixed.CacheQuantizer) so
// quantizing attention kernels pay only for rows appended since their last
// call instead of re-quantizing the whole context every decode step.
type denseCache struct {
	data    []float32
	rows    int
	headDim int
	maxSeq  int
	qc      fixed.QuantCache
}

// denseInitRows is the initial row capacity of a dense cache.
const denseInitRows = 64

func (c *denseCache) Row(r int) []float32 {
	return c.data[r*c.headDim : (r+1)*c.headDim]
}

func (c *denseCache) Span(r int) []float32 {
	return c.data[r*c.headDim : c.rows*c.headDim]
}

func (c *denseCache) EnsureLen(n int) error {
	if n > c.maxSeq {
		return ErrContextFull
	}
	if n <= c.rows {
		return nil
	}
	rows := c.rows
	if rows == 0 {
		rows = denseInitRows
	}
	for rows < n {
		rows *= 2
	}
	if rows > c.maxSeq {
		rows = c.maxSeq
	}
	grown := make([]float32, rows*c.headDim)
	copy(grown, c.data)
	c.data = grown
	c.rows = rows
	return nil
}

// QuantCache implements fixed.CacheQuantizer: rows [0, n) are immutable
// between Truncate calls, which is exactly the append-only contract the
// side-car memo needs.
func (c *denseCache) QuantCache() *fixed.QuantCache { return &c.qc }

func (c *denseCache) Truncate(n int) {
	// The float rows need no work: validity is bounded by the decoder's
	// consumed count, and a later write to row n lands on the same storage.
	// Only the quantized memo must forget the dropped rows.
	if n <= 0 {
		c.qc.Invalidate()
		return
	}
	c.qc.Truncate(n)
}

func (c *denseCache) Release() {
	c.data = nil
	c.rows = 0
	c.qc.Release()
}

// denseProvider is the default CacheProvider.
type denseProvider struct{}

func (denseProvider) NewKVCache(maxSeq, headDim int) KVCache {
	return &denseCache{headDim: headDim, maxSeq: maxSeq}
}

// headCache is the KV cache pair for one (layer, head).
type headCache struct {
	K, V KVCache
}

// Decoder is one sequence's decoding state: the KV caches, the consumed-token
// count, and the generation-phase attention Kernel. The prompt phase always
// uses exact attention (the paper preloads all K/V on-chip during prompt and
// applies pruning only to the memory-bound generation phase).
//
// The forward pass itself lives in BatchEngine. Step and Prompt run it on a
// private engine the decoder builds on first use; a serving session's decoder
// is only ever an entry of its runner's engine and never builds one.
//
// A Decoder is not goroutine-safe, and neither are the kernels plugged into
// it. Concurrent sessions each need their own Decoder (sharing one read-only
// *Params is fine). The Exec field chooses the intra-step executor Step and
// Prompt hand to the engine, with bit-identical results either way.
// NewDecoder sets it to exec.Shared(), the process-wide pool, so the heads
// and the Q/K/V, Wo and FFN blocks of each layer (prompt and generation
// phases alike) run across cores; decoders on other goroutines that find the
// pool busy run inline. Setting Exec to nil runs every stage in order on the
// calling goroutine.
type Decoder struct {
	P      *Params
	Kernel Kernel
	Exec   exec.Executor // intra-step executor of heads and dense blocks; nil = serial
	n      int           // tokens consumed so far
	caches [][]headCache

	// Per-layer KV views, prebuilt so the per-step batch assembly allocates
	// nothing.
	keySrc [][]tensor.RowSource
	valSrc [][]tensor.RowSource

	// The private engine behind Step and Prompt, with its one-entry batch.
	eng   *BatchEngine
	entry [1]BatchEntry
	tok   [1]int
}

// promptChunkRows is how many prompt tokens Decoder.Prompt advances per
// engine step.
const promptChunkRows = 32

// NewDecoder creates a decoder with the given attention kernel for the
// generation phase. kernel may be nil, which means exact attention
// everywhere. KV storage uses the default on-demand dense provider, and
// Exec the shared pool.
func NewDecoder(p *Params, kernel Kernel) *Decoder {
	return NewDecoderWith(p, kernel, nil)
}

// NewDecoderWith creates a decoder whose KV caches come from the given
// provider (nil = default dense provider), with Exec set to exec.Shared().
// The serving engine passes a pooled block-paged provider here so thousands
// of short sessions share recycled storage; its runners step sessions with
// executors of their own, so a session never uses Exec.
func NewDecoderWith(p *Params, kernel Kernel, prov CacheProvider) *Decoder {
	if prov == nil {
		prov = denseProvider{}
	}
	dec := &Decoder{P: p, Kernel: kernel, Exec: exec.Shared()}
	dec.caches = make([][]headCache, p.Cfg.Layers)
	dec.keySrc = make([][]tensor.RowSource, p.Cfg.Layers)
	dec.valSrc = make([][]tensor.RowSource, p.Cfg.Layers)
	for l := range dec.caches {
		dec.caches[l] = make([]headCache, p.Cfg.Heads)
		dec.keySrc[l] = make([]tensor.RowSource, p.Cfg.Heads)
		dec.valSrc[l] = make([]tensor.RowSource, p.Cfg.Heads)
		for h := range dec.caches[l] {
			dec.caches[l][h] = headCache{
				K: prov.NewKVCache(p.Cfg.MaxSeq, p.Cfg.HeadDim),
				V: prov.NewKVCache(p.Cfg.MaxSeq, p.Cfg.HeadDim),
			}
			dec.keySrc[l][h] = dec.caches[l][h].K
			dec.valSrc[l][h] = dec.caches[l][h].V
		}
	}
	return dec
}

// Reset clears the KV cache for a new sequence. Pooled caches return their
// blocks; the decoder stays usable.
func (dec *Decoder) Reset() { dec.Rollback(0) }

// Rollback truncates the consumed sequence to n tokens, discarding the KV
// rows (and quantized side-car state) of everything after: the speculative
// decoder calls this to drop draft positions past the accepted prefix. Rows
// [0, n) stay bit-identical, so re-stepping the same tokens reproduces the
// exact non-speculative state. It panics when n exceeds the consumed length.
func (dec *Decoder) Rollback(n int) {
	if n < 0 || n > dec.n {
		panic(fmt.Sprintf("model: Rollback(%d) outside consumed length %d", n, dec.n))
	}
	if n == dec.n && n != 0 {
		return
	}
	dec.n = n
	for _, layer := range dec.caches {
		for _, c := range layer {
			c.K.Truncate(n)
			c.V.Truncate(n)
		}
	}
}

// Release returns all KV storage to its provider. The decoder must not be
// used afterwards; serving sessions call this on completion so the pool can
// recycle their blocks.
func (dec *Decoder) Release() {
	dec.n = 0
	for _, layer := range dec.caches {
		for _, c := range layer {
			c.K.Release()
			c.V.Release()
		}
	}
}

// Len returns the number of tokens consumed.
func (dec *Decoder) Len() int { return dec.n }

// AdoptPrefix seeds a fresh decoder with n context rows that are already
// materialized in its KV caches: the serving engine's prefix-sharing path
// installs cached, read-only prompt blocks (and their quantized side-car
// snapshots) into the caches of a new session and then calls this so the
// decoder treats those rows as consumed context — prefill resumes at
// position n instead of 0. The decoder must not have consumed any tokens
// yet, and the caller guarantees every cache already addresses rows [0, n)
// holding exactly the key/value rows an exact prefill of the same n tokens
// would produce (KV rows are deterministic in the token prefix, so adopted
// generation is bit-identical to recomputation).
func (dec *Decoder) AdoptPrefix(n int) error {
	if dec.n != 0 {
		return fmt.Errorf("model: AdoptPrefix on a decoder with %d consumed tokens", dec.n)
	}
	if n < 0 || n > dec.P.Cfg.MaxSeq {
		return fmt.Errorf("%w: adopting %d rows (max %d)", ErrContextFull, n, dec.P.Cfg.MaxSeq)
	}
	dec.n = n
	return nil
}

// Cache exposes the K and V cache views for (layer, head); rows [0, Len)
// are valid. The experiment harness reads these to build accelerator traces.
func (dec *Decoder) Cache(layer, head int) (keys, vals tensor.RowSource) {
	c := dec.caches[layer][head]
	return c.K, c.V
}

// Prompt consumes the prompt tokens with exact attention, filling the KV
// cache promptChunkRows tokens per engine step. It returns the logits after
// the final prompt token. On ErrContextFull the tokens that fit the window
// remain consumed; on a pool allocation failure the chunks before the failing
// one do.
//
//topick:noalloc
func (dec *Decoder) Prompt(tokens []int) ([]float32, error) {
	var logits []float32
	for len(tokens) > 0 {
		n := min(len(tokens), promptChunkRows)
		if room := dec.P.Cfg.MaxSeq - dec.n; room > 0 {
			n = min(n, room)
		}
		var err error
		logits, err = dec.run(tokens[:n], true, n == len(tokens))
		if err != nil {
			return nil, err
		}
		tokens = tokens[n:]
	}
	return logits, nil
}

// Step consumes one generation-phase token and returns next-token logits.
// The configured kernel handles attention; nil means exact. It returns
// ErrContextFull once MaxSeq tokens have been consumed.
//
//topick:noalloc
func (dec *Decoder) Step(token int) ([]float32, error) {
	dec.tok[0] = token
	return dec.run(dec.tok[:], false, true)
}

// run advances the decoder by one entry of its private engine.
func (dec *Decoder) run(tokens []int, prefill, needLogits bool) ([]float32, error) {
	if dec.eng == nil {
		dec.eng = NewBatchEngine(dec.P) //topick:alloc-ok one-time engine construction on the first library Step/Prompt
	}
	dec.entry[0] = BatchEntry{Dec: dec, Tokens: tokens, Prefill: prefill, NeedLogits: needLogits}
	dec.eng.Step(dec.entry[:], dec.Kernel, dec.Exec)
	return dec.entry[0].Logits, dec.entry[0].Err
}

// MustStep is Step for callers that have already bounded the sequence
// length; it panics on error.
func (dec *Decoder) MustStep(token int) []float32 {
	logits, err := dec.Step(token)
	if err != nil {
		panic(err)
	}
	return logits
}

// MustPrompt is Prompt for callers that have already bounded the sequence
// length; it panics on error.
func (dec *Decoder) MustPrompt(tokens []int) []float32 {
	logits, err := dec.Prompt(tokens)
	if err != nil {
		panic(err)
	}
	return logits
}

// ensureRows acquires storage for rows [0, n) in every KV cache before any
// state is touched, so a failed acquisition leaves the decoder consistent
// and retryable (over-extended caches are harmless: validity is bounded by
// dec.n).
func (dec *Decoder) ensureRows(n int) error {
	for _, layer := range dec.caches {
		for _, c := range layer {
			if err := c.K.EnsureLen(n); err != nil {
				return err
			}
			if err := c.V.EnsureLen(n); err != nil {
				return err
			}
		}
	}
	return nil
}
