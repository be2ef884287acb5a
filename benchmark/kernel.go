package main

import (
	"sync"
	"sync/atomic"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/core"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/model"
	"tokenpicker/internal/sim/arch"
	"tokenpicker/internal/tensor"
)

// threshold is the repo's "ToPick" default pruning threshold.
const threshold = 1e-3

// newGenKernel is the generation kernel every workload uses.
func newGenKernel() *attention.TokenPicker { return attention.NewTokenPicker(threshold) }

// statKernel is a kernel that accounts its computed K/V traffic.
type statKernel interface {
	model.Kernel
	Stats() attention.Stats
	ResetStats()
}

// timedKernel measures the attention layer from outside: it times every
// AttendLayer call into the wrapped kernel and, on a traced run, records one
// attention.attend_layer span per call. It delegates Stats/ResetStats so the
// serving engine's traffic report keeps working through it.
type timedKernel struct {
	inner  statKernel
	rec    *recorder
	parent int32 // span of the model.step driving this call (library runs)
	req    int32
	ns     atomic.Int64
	calls  atomic.Int64
	cap    *capture // when set and armed, snapshots the call's instances
}

func (k *timedKernel) AttendLayer(b model.AttendBatch) {
	t0 := time.Now()
	k.inner.AttendLayer(b)
	d := time.Since(t0)
	k.ns.Add(int64(d))
	k.calls.Add(1)
	k.rec.add("attention.attend_layer", k.parent, k.req, t0, d)
	if k.cap != nil && k.cap.armed {
		k.cap.snapshot(b)
	}
}

func (k *timedKernel) Stats() attention.Stats { return k.inner.Stats() }
func (k *timedKernel) ResetStats()            { k.inner.ResetStats() }

// kernelSet hands one timedKernel to every serve worker (Config.NewKernel
// is called once per worker) and sums them afterwards.
type kernelSet struct {
	rec *recorder
	mu  sync.Mutex
	all []*timedKernel
}

func (s *kernelSet) newKernel() model.Kernel {
	k := &timedKernel{inner: newGenKernel(), rec: s.rec}
	s.mu.Lock()
	s.all = append(s.all, k)
	s.mu.Unlock()
	return k
}

func (s *kernelSet) totals() (ns, calls int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range s.all {
		ns += k.ns.Load()
		calls += k.calls.Load()
	}
	return ns, calls
}

// instance is one captured attention instance with everything the replays
// need: the estimator inputs (also the simulator's input), the quantized
// value rows, and the float K source the side-car replays re-quantize.
type instance struct {
	sim    arch.Instance
	vRows  []fixed.Vector
	vScale float64
	keys   tensor.RowSource
	n      int
}

// capture snapshots the attention instances of the calls made while it is
// armed. Snapshots quantize from scratch into private storage, so they stay
// valid after the decoder moves on (the float rows in keys do not: replay
// those before the decoder is reset).
type capture struct {
	armed bool
	insts []instance
}

func (c *capture) snapshot(b model.AttendBatch) {
	cs := fixed.DefaultChunkSpec
	for h := 0; h < b.Heads; h++ {
		n, dim := b.TaskN(h), b.HeadDim
		var kq, vq fixed.QuantCache
		kRows, planes, kScale := kq.SyncChunked(b.Keys[h], n, dim, cs)
		vRows, vScale := vq.Sync(b.Vals[h], n, dim, cs.TotalBits)
		bias := make([]float32, n)
		for i := range bias {
			bias[i] = -b.TaskSlope(h) * float32(n-1-i)
		}
		c.insts = append(c.insts, instance{
			sim: arch.Instance{
				In: core.Inputs{
					Q:       fixed.Quantize(b.TaskQ(h), cs.TotalBits),
					K:       kRows,
					KPlanes: planes,
					KScale:  kScale,
					Scale:   float64(b.Scale),
					Bias:    bias,
				},
				Dim: dim,
			},
			vRows:  vRows,
			vScale: vScale,
			keys:   b.Keys[h],
			n:      n,
		})
	}
}
