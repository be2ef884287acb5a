// Package attention provides the model.Kernel implementations compared in
// the paper's evaluation: 12-bit quantized exact attention (the non-pruning
// accelerator's arithmetic), the Token-Picker estimator kernel, an oracle
// pruner that bounds what any probability-threshold method could achieve,
// and the SpAtten-style cascade pruner of Fig. 9. Every kernel tracks the
// off-chip traffic it would have generated so perplexity and memory-access
// numbers come from the same code path.
//
// The four kernels share one slotted base. Kernels receive whole layers
// (model.AttendBatch) — one or many query rows, each row one (sequence,
// position) instance — and the base runs the kernel's task once per
// (row, head) on the batch's executor. All mutable per-call state —
// quantization scratch, score/probability scratch, the estimator, transfer
// statistics — lives in one per-slot struct, so tasks running concurrently
// never share memory; statistics are merged across slots when read. Task
// outputs are computed independently with no cross-task reduction, so pool
// execution is bit-identical to serial, and a multi-row batch may mix rows
// of different sequences (a verify pass's positions, or several decoders'
// rows in one BatchEngine step): every kernel but SpAtten keeps no
// per-sequence state beyond the cache-owned quantization side-cars.
package attention

import (
	"math"

	"tokenpicker/internal/core"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/model"
	"tokenpicker/internal/tensor"
)

// Stats accumulates transfer accounting across attention calls.
type Stats struct {
	Instances int64 // attention instances (query x layer x head)
	Tokens    int64 // context tokens summed over instances
	Kept      int64 // tokens whose V was fetched
	// ChunkFetches[b] counts K chunk-b vector fetches (Token-Picker only).
	ChunkFetches []int64
	KBytes       int64 // key bytes fetched
	VBytes       int64 // value bytes fetched
	// Baseline bytes: what a non-pruning design moves for the same calls.
	BaselineKBytes int64
	BaselineVBytes int64
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.Instances += other.Instances
	s.Tokens += other.Tokens
	s.Kept += other.Kept
	for len(s.ChunkFetches) < len(other.ChunkFetches) {
		s.ChunkFetches = append(s.ChunkFetches, 0)
	}
	for b, v := range other.ChunkFetches {
		s.ChunkFetches[b] += v
	}
	s.KBytes += other.KBytes
	s.VBytes += other.VBytes
	s.BaselineKBytes += other.BaselineKBytes
	s.BaselineVBytes += other.BaselineVBytes
}

// countRows adds one instance over n context tokens that fetched keys whole
// key vectors and vals whole value vectors at bits precision, and no chunks:
// the accounting of every kernel but Token-Picker.
func (s *Stats) countRows(n, keys, vals, dim int, bits uint) {
	cs := fixed.ChunkSpec{TotalBits: bits, ChunkBits: bits}
	vecBytes := int64(cs.VectorBytes(dim))
	s.Instances++
	s.Tokens += int64(n)
	s.Kept += int64(vals)
	s.KBytes += int64(keys) * vecBytes
	s.VBytes += int64(vals) * vecBytes
	s.BaselineKBytes += int64(n) * vecBytes
	s.BaselineVBytes += int64(n) * vecBytes
}

// PruningRatio returns tokens/kept (the paper's V-access reduction factor).
func (s *Stats) PruningRatio() float64 {
	if s.Kept == 0 {
		return math.Inf(1)
	}
	return float64(s.Tokens) / float64(s.Kept)
}

// KReduction returns baseline K bytes / fetched K bytes.
func (s *Stats) KReduction() float64 {
	if s.KBytes == 0 {
		return math.Inf(1)
	}
	return float64(s.BaselineKBytes) / float64(s.KBytes)
}

// TotalReduction returns baseline (K+V) bytes / fetched (K+V) bytes.
func (s *Stats) TotalReduction() float64 {
	moved := s.KBytes + s.VBytes
	if moved == 0 {
		return math.Inf(1)
	}
	return float64(s.BaselineKBytes+s.BaselineVBytes) / float64(moved)
}

// quantScratch holds one slot's quantization state: a quantized-query buffer
// and two fallback QuantCaches for row sources that do not carry their own
// side-car. When the source implements fixed.CacheQuantizer (the decoder's
// dense cache and the serving engine's paged cache both do), SyncFor routes
// to the source-owned side-car instead and quantization is incremental —
// O(added rows) per decode step rather than O(context).
type quantScratch struct {
	qk, qv fixed.QuantCache
	qq     fixed.Vector
	bias   []float32
	dots   []int64 // quantScores' integer dots
	iota   []int   // 0, 1, 2, …: all's backing
}

// query quantizes q reusing the slot-owned buffer.
func (qs *quantScratch) query(q []float32, bits uint) fixed.Quantized {
	out := fixed.QuantizeInto(qs.qq, q, bits)
	qs.qq = out.Data
	return out
}

// keys and values fetch the shared-scale quantized rows of the K/V cache.
func (qs *quantScratch) keys(src tensor.RowSource, n, dim int, bits uint) ([]fixed.Vector, float64) {
	return qs.qk.SyncFor(src, n, dim, bits)
}

func (qs *quantScratch) values(src tensor.RowSource, n, dim int, bits uint) ([]fixed.Vector, float64) {
	return qs.qv.SyncFor(src, n, dim, bits)
}

// accumulate adds one attended value row to out: out += p·vScale·v, with the
// dequantisation folded into a single float32 weight per row. Token-Picker,
// QuantizedExact and Oracle sum V through this one loop, so perplexity
// deltas between them isolate pruning from value arithmetic.
func accumulate(out []float32, p, vScale float64, v fixed.Vector) {
	w := float32(p * vScale)
	v = v[:len(out)]
	for j := range out {
		out[j] += w * float32(v[j])
	}
}

// all returns the index list 0, 1, …, n-1: every key of an n-row context.
func (qs *quantScratch) all(n int) []int {
	for len(qs.iota) < n {
		qs.iota = append(qs.iota, len(qs.iota))
	}
	return qs.iota[:n]
}

// quantScores writes the full-precision score of every listed key: with
// i = keys[x] and n = len(kRows), scores[x] = float32(c·(q·k_i)) -
// slope·float32(n-1-i). QuantizedExact and Oracle list every key, SpAtten
// its active rows. The integer dots come from one fixed.MaskedDots call
// with mask -1; integer sums are exact in any order, so every score keeps
// its bits.
func (qs *quantScratch) quantScores(scores []float32, q fixed.Vector, kRows []fixed.Vector, keys []int, c float64, slope float32, bits uint) {
	n := len(kRows)
	qs.dots = tensor.Grow(qs.dots, len(keys))
	fixed.MaskedDots(qs.dots, q, kRows, keys, -1, bits)
	for x, i := range keys {
		scores[x] = float32(c*float64(qs.dots[x])) - slope*float32(n-1-i)
	}
}

// slot is one executor slot's private state, the same struct for every
// kernel; a kernel leaves the fields it does not use empty.
type slot struct {
	qs      quantScratch
	scores  []float32
	probs   []float32
	keptIdx []int
	est     *core.Estimator // Token-Picker only
	rep     core.Report     // Token-Picker only
	stats   Stats
}

// scoreAll is the full-scoring prologue of QuantizedExact and Oracle:
// quantize task t's query, sync its K/V side-cars, score every key and
// softmax. It returns the n probabilities and the quantized value rows.
func (s *slot) scoreAll(b *model.AttendBatch, t int, bits uint) (probs []float32, vRows []fixed.Vector, vScale float64) {
	n, dim := b.TaskN(t), b.HeadDim
	s.scores = tensor.Grow(s.scores, n)
	s.probs = tensor.Grow(s.probs, n)
	kRows, kScale := s.qs.keys(b.Keys[t], n, dim, bits)
	vRows, vScale = s.qs.values(b.Vals[t], n, dim, bits)
	qq := s.qs.query(b.TaskQ(t), bits)
	s.qs.quantScores(s.scores, qq.Data, kRows, s.qs.all(n), float64(b.Scale)*qq.Scale*kScale, b.TaskSlope(t), bits)
	tensor.Softmax(s.probs, s.scores)
	return s.probs, vRows, vScale
}

// slotted is the base every kernel embeds. It owns the per-slot state, runs
// the kernel's task once per (row, head) on the batch's executor, and holds
// the package's only Stats and ResetStats. Constructors set task, and
// slotInit when a fresh slot needs more than zero values.
type slotted struct {
	slots    []slot
	task     func(b *model.AttendBatch, t int, s *slot)
	slotInit func(i int) slot
	batch    model.AttendBatch
}

// slotTasks is slotted's exec.Tasks view; a type of its own keeps Do out of
// the kernels' method sets.
type slotTasks slotted

// Do implements exec.Tasks.
func (r *slotTasks) Do(t, i int) { r.task(&r.batch, t, &r.slots[i]) }

// AttendLayer implements model.Kernel.
func (k *slotted) AttendLayer(batch model.AttendBatch) {
	for len(k.slots) < batch.Width() {
		var s slot
		if k.slotInit != nil {
			s = k.slotInit(len(k.slots))
		}
		k.slots = append(k.slots, s)
	}
	k.batch = batch
	k.batch.Run((*slotTasks)(k))
}

// Stats returns the transfer statistics merged across executor slots. The
// merged ChunkFetches is a fresh slice the caller may keep, sized once.
func (k *slotted) Stats() Stats {
	var merged Stats
	chunks := 0
	for i := range k.slots {
		chunks = max(chunks, len(k.slots[i].stats.ChunkFetches))
	}
	if chunks > 0 {
		merged.ChunkFetches = make([]int64, chunks)
	}
	for i := range k.slots {
		merged.Add(k.slots[i].stats)
	}
	return merged
}

// ResetStats zeroes every slot's statistics in place; ChunkFetches keeps its
// length and backing, so the next task does not regrow it. Other kernel
// state (SpAtten's pruning state) is kept.
func (k *slotted) ResetStats() {
	for i := range k.slots {
		chunks := k.slots[i].stats.ChunkFetches
		clear(chunks)
		k.slots[i].stats = Stats{ChunkFetches: chunks}
	}
}

// TokenPicker is the paper's kernel: probability-estimation pruning over
// chunked 12-bit keys, quantized values for kept tokens only.
type TokenPicker struct {
	slotted
	est  *core.Estimator // slot 0's estimator; extra slots clone its config
	Bits uint            // operand precision (12 in the paper)
}

// NewTokenPicker builds the kernel at the given pruning threshold with the
// paper's defaults.
func NewTokenPicker(threshold float64) *TokenPicker {
	return NewTokenPickerFrom(core.DefaultConfig(threshold))
}

// NewTokenPickerFrom wraps a custom-configured estimator.
func NewTokenPickerFrom(cfg core.Config) *TokenPicker {
	k := &TokenPicker{est: core.MustNewEstimator(cfg), Bits: cfg.Chunks.TotalBits}
	k.task = k.attendTask
	k.slotInit = k.initSlot
	return k
}

// initSlot provisions slot i: slot 0 reuses the kernel's configured
// estimator, later slots get clones of its config, so every slot prunes
// identically.
func (k *TokenPicker) initSlot(i int) slot {
	if i == 0 {
		return slot{est: k.est}
	}
	return slot{est: core.MustNewEstimator(k.est.Config())}
}

// attendTask is the per-(row, head) hot path.
//
//topick:noalloc
func (k *TokenPicker) attendTask(b *model.AttendBatch, t int, s *slot) {
	q, out := b.TaskQ(t), b.TaskOut(t)
	keys, vals := b.Keys[t], b.Vals[t]
	n, dim := b.TaskN(t), b.HeadDim
	slope := b.TaskSlope(t)
	cs := s.est.Config().Chunks
	kRows, kScale := s.qs.keys(keys, n, dim, cs.TotalBits)
	qq := s.qs.query(q, k.Bits)
	s.qs.bias = tensor.Grow(s.qs.bias, n)
	for i := 0; i < n; i++ {
		s.qs.bias[i] = -slope * float32(n-1-i)
	}
	rep := &s.rep
	s.est.RunInto(rep, core.Inputs{
		Q:      qq,
		K:      kRows,
		KScale: kScale,
		Scale:  float64(b.Scale),
		Bias:   s.qs.bias,
	})

	s.stats.Instances++
	s.stats.Tokens += int64(n)
	s.stats.Kept += int64(len(rep.Kept))
	for len(s.stats.ChunkFetches) < len(rep.ChunkFetches) {
		s.stats.ChunkFetches = append(s.stats.ChunkFetches, 0)
	}
	for bkt, v := range rep.ChunkFetches {
		s.stats.ChunkFetches[bkt] += v
	}
	s.stats.KBytes += rep.KBytes(cs, dim)
	s.stats.VBytes += rep.VBytes(cs, dim)
	s.stats.BaselineKBytes += rep.BaselineKBytes(cs, dim)
	s.stats.BaselineVBytes += rep.BaselineVBytes(cs, dim)

	for j := range out {
		out[j] = 0
	}
	if len(rep.Kept) == 0 {
		// Degenerate instance (can only happen at extreme thresholds):
		// fall back to attending the newest token so the output is defined.
		// That fallback still moves one value vector off-chip, so it counts
		// toward Kept and VBytes like any kept token.
		copy(out, vals.Row(n - 1)[:dim])
		s.stats.Kept++
		s.stats.VBytes += int64(cs.VectorBytes(dim))
		return
	}
	// Weighted sum over kept tokens with quantized values.
	vRows, vScale := s.qs.values(vals, n, dim, k.Bits)
	for _, i := range rep.Kept {
		accumulate(out, rep.Prob(i), vScale, vRows[i])
	}
}

// QuantizedExact applies full softmax attention with the same 12-bit
// quantized arithmetic as the accelerator baseline (no pruning). Perplexity
// deltas against this kernel isolate the pruning effect from quantization.
type QuantizedExact struct {
	slotted
	Bits uint
}

// NewQuantizedExact returns the 12-bit exact kernel.
func NewQuantizedExact() *QuantizedExact {
	k := &QuantizedExact{Bits: 12}
	k.task = k.attendTask
	return k
}

// attendTask is the per-(row, head) hot path.
//
//topick:noalloc
func (k *QuantizedExact) attendTask(b *model.AttendBatch, t int, s *slot) {
	n, out := b.TaskN(t), b.TaskOut(t)
	probs, vRows, vScale := s.scoreAll(b, t, k.Bits)
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < n; i++ {
		accumulate(out, float64(probs[i]), vScale, vRows[i])
	}
	s.stats.countRows(n, n, n, b.HeadDim, k.Bits)
}

// Oracle prunes tokens whose exact probability is at or below the
// threshold. It cannot save K traffic (it needs every score) but bounds the
// achievable V pruning for any sound threshold method.
type Oracle struct {
	slotted
	Threshold float64
	Bits      uint
}

// NewOracle returns an oracle pruning kernel.
func NewOracle(threshold float64) *Oracle {
	k := &Oracle{Threshold: threshold, Bits: 12}
	k.task = k.attendTask
	return k
}

// attendTask is the per-(row, head) hot path.
//
//topick:noalloc
func (k *Oracle) attendTask(b *model.AttendBatch, t int, s *slot) {
	n, out := b.TaskN(t), b.TaskOut(t)
	probs, vRows, vScale := s.scoreAll(b, t, k.Bits)
	keptIdx := s.keptIdx[:0]
	var keptMass float64
	for i := 0; i < n; i++ {
		if float64(probs[i]) > k.Threshold {
			keptIdx = append(keptIdx, i)
			keptMass += float64(probs[i])
		}
	}
	if len(keptIdx) == 0 {
		// Threshold above the max probability: keep the argmax token.
		best := tensor.Argmax(probs)
		keptIdx = append(keptIdx, best)
		keptMass = float64(probs[best])
	}
	s.keptIdx = keptIdx
	for j := range out {
		out[j] = 0
	}
	for _, i := range keptIdx {
		accumulate(out, float64(probs[i])/keptMass, vScale, vRows[i])
	}
	s.stats.countRows(n, n, len(keptIdx), b.HeadDim, k.Bits)
}
