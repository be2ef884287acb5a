package bench

import (
	"fmt"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
	"tokenpicker/internal/tensor"
)

// This file holds the decode-step benchmark bodies: one generation step per
// kernel, context and quantization mode, with allocs/op. `go test -bench
// DecodeStep ./internal/bench` runs them; benchmark/ measures the default
// kernel end to end.

// decodeBenchSpan is how many generation steps run between cache refills;
// context length stays within [ctx, ctx+decodeBenchSpan] during timing.
const decodeBenchSpan = 256

// defaultBenchHeads matches the pre-parallel harness geometry.
const defaultBenchHeads = 4

// opaqueRows hides everything but Row, in particular the quantized side-car.
type opaqueRows struct{ src tensor.RowSource }

func (o *opaqueRows) Row(r int) []float32 { return o.src.Row(r) }

// scratchQuantKernel strips the side-car from the K/V sources before
// delegating, forcing from-scratch O(context·dim) quantization on every
// attention call — the pre-incremental behaviour of the attention kernels
// (for the SpAtten kernel, an upper bound: it used to quantize surviving
// rows only), kept runnable as the benchmark baseline and as the reference
// half of the equivalence tests. The per-head wrappers are reused across
// calls so the wrapper itself adds no steady-state allocation.
type scratchQuantKernel struct {
	inner        model.Kernel
	wrapK, wrapV []*opaqueRows
	keys, vals   []tensor.RowSource
}

// AttendLayer implements model.Kernel.
func (s *scratchQuantKernel) AttendLayer(b model.AttendBatch) {
	for len(s.wrapK) < b.Heads {
		s.wrapK = append(s.wrapK, &opaqueRows{})
		s.wrapV = append(s.wrapV, &opaqueRows{})
		s.keys = append(s.keys, nil)
		s.vals = append(s.vals, nil)
	}
	for h := 0; h < b.Heads; h++ {
		s.wrapK[h].src = b.Keys[h]
		s.wrapV[h].src = b.Vals[h]
		s.keys[h] = s.wrapK[h]
		s.vals[h] = s.wrapV[h]
	}
	b.Keys, b.Vals = s.keys[:b.Heads], s.vals[:b.Heads]
	s.inner.AttendLayer(b)
}

// ScratchQuant wraps k so it cannot see cache-owned quantized side-cars.
func ScratchQuant(k model.Kernel) model.Kernel { return &scratchQuantKernel{inner: k} }

// DecodeKernels lists the kernels the decode-step benchmark covers.
func DecodeKernels() []string {
	return []string{"exact", "quantized-exact", "token-picker", "oracle", "spatten"}
}

// QuantizedDecodeKernels lists the kernels whose attention quantizes the KV
// cache — the ones with distinct incremental and scratch modes.
func QuantizedDecodeKernels() []string {
	return []string{"quantized-exact", "token-picker", "oracle", "spatten"}
}

func decodeBenchConfig(ctx, heads int) model.Config {
	if heads <= 0 {
		heads = defaultBenchHeads
	}
	return model.Config{
		Name:      "decode-bench",
		VocabSize: 256,
		Layers:    2,
		Heads:     heads,
		HeadDim:   32,
		FFNMult:   2,
		MaxSeq:    ctx + decodeBenchSpan + 1,
		Eps:       1e-5,
	}
}

func newDecodeKernel(name string, cfg model.Config) model.Kernel {
	switch name {
	case "exact":
		return &model.ExactKernel{}
	case "quantized-exact":
		return attention.NewQuantizedExact()
	case "token-picker":
		return attention.NewTokenPicker(1e-3)
	case "oracle":
		return attention.NewOracle(1e-3)
	case "spatten":
		return attention.NewSpAtten(attention.SpAttenConfig{
			KeepRatio: 0.5, MinKeep: 4,
			Layers: cfg.Layers, Heads: cfg.Heads,
			Cascade: true, Bits: 12,
		})
	default:
		panic(fmt.Sprintf("bench: unknown decode kernel %q", name))
	}
}

// DecodeBenchSpec selects one decode-step benchmark variant.
type DecodeBenchSpec struct {
	Kernel  string
	Context int // minimum context length during timing
	Heads   int // 0 = the harness default (4)
	Scratch bool
	// Parallel is the head-executor width: <= 1 runs the serial executor,
	// larger values run an exec.Pool of that width.
	Parallel int
}

// DecodeStepBenchSpec times generation-phase decode steps for one spec. The
// prompt refill when the window fills is excluded from the timing (and, via
// StopTimer, from the allocation accounting).
func DecodeStepBenchSpec(b *testing.B, spec DecodeBenchSpec) {
	cfg := decodeBenchConfig(spec.Context, spec.Heads)
	params := model.NewParams(cfg, 41)
	ex := exec.New(spec.Parallel)
	defer ex.Close()
	prompt := make([]int, spec.Context)
	for i := range prompt {
		prompt[i] = (i*31 + 7) % cfg.VocabSize
	}
	mk := func() *model.Decoder {
		k := newDecodeKernel(spec.Kernel, cfg)
		if spec.Scratch {
			k = ScratchQuant(k)
		}
		// Fresh kernel per refill: the SpAtten cascade accumulates
		// per-sequence importance and must restart with its sequence.
		dec := model.NewDecoder(params, k)
		dec.Exec = ex
		dec.MustPrompt(prompt)
		return dec
	}
	dec := mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dec.Len() >= cfg.MaxSeq {
			b.StopTimer()
			dec = mk()
			b.StartTimer()
		}
		dec.MustStep((i*13 + 5) % cfg.VocabSize)
	}
}
