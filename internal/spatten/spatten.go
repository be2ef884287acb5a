// Package spatten reimplements the baseline the paper compares against in
// Fig. 9: SpAtten-style cascade token pruning (Wang et al., HPCA 2021).
//
// SpAtten ranks tokens by cumulative attention probability (summed over
// heads, layers, and decode steps) and keeps, at each layer, a fixed
// fraction of the sequence ranked by that importance. The keep fraction
// shrinks with layer depth (the cascade), and because importance is
// cumulative the surviving set is stable across steps: tokens evicted for a
// layer are effectively never fetched for it again. The contrast with
// Token-Picker is the point of the experiment: the fractions are fixed per
// configuration, not adapted per instance, so flat-distribution instances
// lose significant probability mass while peaked ones keep useless tokens.
//
// Differences from the original (documented substitutions, DESIGN.md §2):
//   - head pruning is not modeled (token pruning dominates KV traffic);
//   - the "SpAtten*" fine-tuned variant is approximated by the steeper
//     geometric cascade schedule calibrated against a recovered-accuracy
//     (doubled) perplexity budget rather than by fine-tuning weights;
//   - operands are quantized at the cache-wide shared scale (the layout of
//     a KV cache stored pre-quantized in DRAM, enabling the incremental
//     side-car), not at a scale recomputed per call over the surviving
//     rows; the difference stays within quantization tolerance.
package spatten

import (
	"fmt"
	"math"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/model"
	"tokenpicker/internal/tensor"
)

// Config parameterizes the cascade pruner.
type Config struct {
	// KeepRatio is the fraction of the sequence the deepest layer retains.
	KeepRatio float64
	// MinKeep floors the kept-set size.
	MinKeep int
	// Layers and Heads describe the host model; the cascade schedule is a
	// function of the layer count.
	Layers, Heads int
	// Cascade selects the geometric per-layer schedule (keep^(l+1)/L),
	// which prunes earlier layers harder than the default linear ramp.
	// This is the "SpAtten*" schedule.
	Cascade bool
	// Bits is the operand precision (12 to match the comparison setup).
	Bits uint
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.KeepRatio <= 0 || c.KeepRatio > 1 {
		return fmt.Errorf("spatten: keep ratio %g out of (0,1]", c.KeepRatio)
	}
	if c.MinKeep < 1 {
		return fmt.Errorf("spatten: min keep %d must be >= 1", c.MinKeep)
	}
	if c.Layers < 1 || c.Heads < 1 {
		return fmt.Errorf("spatten: layers/heads must be positive")
	}
	if c.Bits < 2 || c.Bits > 15 {
		return fmt.Errorf("spatten: bits %d out of range", c.Bits)
	}
	return nil
}

// layerKeepFraction returns the fraction of the sequence layer l retains.
func (c Config) layerKeepFraction(l int) float64 {
	if c.KeepRatio >= 1 {
		return 1
	}
	depth := float64(l+1) / float64(c.Layers)
	if c.Cascade {
		// Geometric: keep^(depth); reaches KeepRatio at the deepest layer
		// with aggressive early-layer pruning.
		return math.Pow(c.KeepRatio, depth)
	}
	// Linear ramp from ~1 down to KeepRatio at the deepest layer.
	return 1 - (1-c.KeepRatio)*depth
}

// Kernel implements model.Kernel with cascade token pruning. It is stateful
// across layers and decode steps: create a fresh kernel per generation.
//
// Parallel execution: the active-set rebuild runs once per layer before the
// heads are scheduled, each head then works on slot-private scratch (scores,
// probabilities, quantization fallback, stats shard), and the cumulative
// importance update — the one cross-head reduction — is applied after the
// batch in ascending head order, exactly the float-addition order of a
// serial head walk. Pool execution is therefore bit-identical to serial.
type Kernel struct {
	cfg Config

	importance []float64 // cumulative attention probability per cache row
	active     [][]int   // per layer: active cache rows, ascending
	lastN      int

	rank []int
	mark []bool // kept-row marker reused by rebuildActive

	heads  []headState // per head: probs retained for the importance merge
	slots  []slotState // per executor slot: scratch + stats shard
	runner spRunner
}

// headState is per-head (not per-slot): the probabilities feed the
// deterministic post-batch importance merge, so every head needs its own.
type headState struct {
	scores []float32
	probs  []float32
}

// slotState is one executor slot's private scratch.
//
// Quantization state: fallback caches for bare row sources plus the
// quantized-query buffer. Decoder caches carry their own side-car, so the
// K/V cache is quantized incrementally at the shared cache-wide scale (the
// layout a pre-quantized KV store in DRAM would have) instead of
// re-quantizing the active rows on every call.
type slotState struct {
	qk, qv fixed.QuantCache
	qq     fixed.Vector
	stats  attention.Stats
}

type spRunner struct {
	k *Kernel
	b model.AttendBatch
}

// Do implements exec.Tasks.
func (r *spRunner) Do(h, slot int) { r.k.attendHead(&r.b, h, slot) }

// New creates a cascade pruning kernel. Panics on invalid config.
func New(cfg Config) *Kernel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Kernel{cfg: cfg, active: make([][]int, cfg.Layers)}
}

// Stats returns transfer statistics merged across executor slots.
func (k *Kernel) Stats() attention.Stats {
	var merged attention.Stats
	for i := range k.slots {
		merged.Add(k.slots[i].stats)
	}
	return merged
}

// ResetStats clears statistics but keeps pruning state.
func (k *Kernel) ResetStats() {
	for i := range k.slots {
		k.slots[i].stats = attention.Stats{}
	}
}

// ActiveTokens returns a copy of the rows active at the given layer.
func (k *Kernel) ActiveTokens(layer int) []int {
	out := make([]int, len(k.active[layer]))
	copy(out, k.active[layer])
	return out
}

// AttendLayer implements model.Kernel. Multi-row batches are processed one
// row at a time in row order: the cascade's cumulative importance makes the
// kernel per-sequence stateful, so the rows of a batch must be consecutive
// positions of the SAME sequence (a chunked prefill), never rows of
// different sessions — which is also why the serving engine does not accept
// this kernel. Row-by-row processing reproduces the exact float-addition
// order of a serial step walk, so batched execution stays bit-identical.
func (k *Kernel) AttendLayer(batch model.AttendBatch) {
	if batch.Rows > 1 {
		hd := batch.Heads * batch.HeadDim
		for r := 0; r < batch.Rows; r++ {
			sub := batch
			sub.Rows = 1
			sub.Ns = batch.Ns[r : r+1]
			sub.Q = batch.Q[r*hd : (r+1)*hd]
			sub.Out = batch.Out[r*hd : (r+1)*hd]
			sub.Keys = batch.Keys[r*batch.Heads : (r+1)*batch.Heads]
			sub.Vals = batch.Vals[r*batch.Heads : (r+1)*batch.Heads]
			k.AttendLayer(sub)
		}
		return
	}
	n := batch.TaskN(0)
	k.syncContext(n)
	k.rebuildActive(batch.Layer, n)
	for len(k.heads) < batch.Heads {
		k.heads = append(k.heads, headState{})
	}
	for len(k.slots) < batch.Width() {
		k.slots = append(k.slots, slotState{})
	}
	k.runner.k = k
	k.runner.b = batch
	batch.Run(&k.runner)

	// Cumulative importance, merged in ascending head order: the same
	// float additions in the same order as a serial head loop, so the
	// cascade's future active sets do not depend on the schedule.
	act := k.active[batch.Layer]
	for h := 0; h < batch.Heads; h++ {
		probs := k.heads[h].probs[:len(act)]
		for ai, row := range act {
			k.importance[row] += float64(probs[ai])
		}
	}
}

// attendHead is the per-head hot path.
//
//topick:noalloc
func (k *Kernel) attendHead(b *model.AttendBatch, h, slot int) {
	s := &k.slots[slot]
	hs := &k.heads[h]
	q, out := b.TaskQ(h), b.TaskOut(h)
	keys, vals := b.Keys[h], b.Vals[h]
	n, dim := b.TaskN(h), b.HeadDim
	slope := b.Slopes[h]
	act := k.active[b.Layer]

	if cap(hs.scores) < len(act) {
		hs.scores = make([]float32, len(act)*2)
		hs.probs = make([]float32, len(act)*2)
	}
	scores := hs.scores[:len(act)]
	probs := hs.probs[:len(act)]

	// Quantized scores over active rows only (SpAtten loads all surviving
	// K). Rows come pre-quantized at the shared cache-wide scale from the
	// incremental side-car; only the dot products are per-call work.
	kRows, kScale := s.qk.SyncFor(keys, n, dim, k.cfg.Bits)
	vRows, vScale := s.qv.SyncFor(vals, n, dim, k.cfg.Bits)
	qqz := fixed.QuantizeInto(s.qq, q, k.cfg.Bits)
	s.qq = qqz.Data
	c := float64(b.Scale) * qqz.Scale * kScale
	for ai, row := range act {
		scores[ai] = float32(c*float64(fixed.Dot(qqz.Data, kRows[row]))) -
			slope*float32(n-1-row)
	}
	tensor.Softmax(probs, scores)

	// Output only; the importance merge happens after the whole batch.
	for j := range out {
		out[j] = 0
	}
	for ai, row := range act {
		p := probs[ai]
		vRow := vRows[row]
		for j := 0; j < dim; j++ {
			out[j] += p * float32(vScale*float64(vRow[j]))
		}
	}

	// Traffic: K and V for every active row.
	cs := fixed.ChunkSpec{TotalBits: k.cfg.Bits, ChunkBits: k.cfg.Bits}
	vecBytes := int64(cs.VectorBytes(dim))
	s.stats.Instances++
	s.stats.Tokens += int64(n)
	s.stats.Kept += int64(len(act))
	s.stats.KBytes += int64(len(act)) * vecBytes
	s.stats.VBytes += int64(len(act)) * vecBytes
	s.stats.BaselineKBytes += int64(n) * vecBytes
	s.stats.BaselineVBytes += int64(n) * vecBytes
}

// syncContext grows the importance table when new rows appear.
//
//topick:noalloc
func (k *Kernel) syncContext(n int) {
	for len(k.importance) < n {
		k.importance = append(k.importance, 0)
	}
	if n > k.lastN {
		k.lastN = n
	}
}

// rebuildActive selects the layer's active rows: the top keep-fraction of
// the sequence by cumulative importance, always including the newest row.
// Selection is O(n) — quickselect for the top-target boundary, then a marker
// scan to emit the kept rows in ascending order — instead of the O(n log n)
// full sort the priority order would otherwise cost every layer of every
// decode step.
//
//topick:noalloc
func (k *Kernel) rebuildActive(layer, n int) {
	target := int(math.Ceil(k.cfg.layerKeepFraction(layer) * float64(n)))
	if target < k.cfg.MinKeep {
		target = k.cfg.MinKeep
	}
	act := k.active[layer][:0]
	if target >= n {
		for i := 0; i < n; i++ {
			act = append(act, i)
		}
		k.active[layer] = act
		return
	}
	if cap(k.rank) < n {
		k.rank = make([]int, n)
	}
	rank := k.rank[:n]
	for i := range rank {
		rank[i] = i
	}
	k.selectTop(rank, target, n-1)
	if cap(k.mark) < n {
		k.mark = make([]bool, n)
	}
	mark := k.mark[:n]
	for i := range mark {
		mark[i] = false
	}
	for _, r := range rank[:target] {
		mark[r] = true
	}
	for i := 0; i < n; i++ {
		if mark[i] {
			act = append(act, i)
		}
	}
	k.active[layer] = act
}

// higher reports whether row a outranks row b: the newest row first (it was
// just produced and must be attended), then descending cumulative
// importance, then recency. The order is strict and total, so the top-target
// set is unique and quickselect returns exactly what a full sort would.
func (k *Kernel) higher(a, b, newest int) bool {
	if a == newest {
		return true
	}
	if b == newest {
		return false
	}
	if k.importance[a] != k.importance[b] {
		return k.importance[a] > k.importance[b]
	}
	return a > b
}

// selectTop partially partitions rank so rank[:target] holds the target
// highest-priority rows (in arbitrary order). Expected O(n) via quickselect
// with median-of-three pivots.
func (k *Kernel) selectTop(rank []int, target, newest int) {
	lo, hi := 0, len(rank)-1
	for lo < hi {
		p := k.partition(rank, lo, hi, newest)
		switch {
		case p == target-1 || p == target:
			return
		case p < target:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// partition is a Lomuto partition of rank[lo..hi] under higher, with a
// median-of-three pivot. Rows before the returned index outrank the pivot;
// rows after do not.
func (k *Kernel) partition(rank []int, lo, hi, newest int) int {
	mid := lo + (hi-lo)/2
	if k.higher(rank[mid], rank[lo], newest) {
		rank[lo], rank[mid] = rank[mid], rank[lo]
	}
	if k.higher(rank[hi], rank[lo], newest) {
		rank[lo], rank[hi] = rank[hi], rank[lo]
	}
	if k.higher(rank[hi], rank[mid], newest) {
		rank[mid], rank[hi] = rank[hi], rank[mid]
	}
	rank[mid], rank[hi] = rank[hi], rank[mid]
	pivot := rank[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if k.higher(rank[j], pivot, newest) {
			rank[i], rank[j] = rank[j], rank[i]
			i++
		}
	}
	rank[i], rank[hi] = rank[hi], rank[i]
	return i
}
