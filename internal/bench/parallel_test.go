package bench

import (
	"fmt"
	"runtime"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
	"tokenpicker/internal/serve"
)

// parallelTestConfig is small enough to decode quickly but has enough heads
// that a pool executor actually distributes work.
func parallelTestConfig() model.Config {
	return model.Config{
		Name:      "parallel-test",
		VocabSize: 96,
		Layers:    2,
		Heads:     8,
		HeadDim:   16,
		FFNMult:   2,
		MaxSeq:    512,
		Eps:       1e-5,
	}
}

// decodeLogits runs prompt + steps through a decoder built with the given
// kernel, provider, and executor, collecting the logits of every step
// (prompt logits included), so comparisons cover both phases.
func decodeLogits(t *testing.T, cfg model.Config, kernel model.Kernel,
	prov model.CacheProvider, ex exec.Executor, steps int) [][]float32 {
	t.Helper()
	return decodeAll(cfg, kernel, prov, func(dec *model.Decoder) { dec.Exec = ex }, 24, steps)
}

// decodeAll is decodeLogits with a promptLen-token prompt and the decoder
// as NewDecoderWith builds it, after setup (when non-nil) adjusts it.
func decodeAll(cfg model.Config, kernel model.Kernel, prov model.CacheProvider,
	setup func(*model.Decoder), promptLen, steps int) [][]float32 {
	params := model.NewParams(cfg, 77)
	dec := model.NewDecoderWith(params, kernel, prov)
	if setup != nil {
		setup(dec)
	}
	prompt := make([]int, promptLen)
	for i := range prompt {
		prompt[i] = (i*5 + 3) % cfg.VocabSize
	}
	var out [][]float32
	logits := dec.MustPrompt(prompt)
	out = append(out, append([]float32(nil), logits...))
	for i := 0; i < steps; i++ {
		logits = dec.MustStep((i*13 + 1) % cfg.VocabSize)
		out = append(out, append([]float32(nil), logits...))
	}
	dec.Release()
	return out
}

// TestPoolExecutorBitIdenticalToSerial is the tentpole equivalence gate:
// for every kernel and both cache providers (dense on-demand and the
// serving engine's block-paged pool), decoding on a pool executor must
// reproduce the serial executor's logits bit for bit at every step —
// including executor widths that do not divide the head count. Run it under
// GOMAXPROCS=1 and GOMAXPROCS=NumCPU (the Makefile check target does both):
// schedule diversity must never reach the numerics.
func TestPoolExecutorBitIdenticalToSerial(t *testing.T) {
	cfg := parallelTestConfig()
	const steps = 40
	providers := []struct {
		name string
		mk   func() model.CacheProvider
	}{
		{"dense", func() model.CacheProvider { return nil }},
		{"paged", func() model.CacheProvider {
			return serve.NewPool(5, cfg.HeadDim, 0).Provider() // odd block size: rows straddle blocks
		}},
	}
	for _, kernel := range DecodeKernels() {
		for _, prov := range providers {
			for _, width := range []int{2, 3, 8} {
				name := fmt.Sprintf("%s/%s/width=%d", kernel, prov.name, width)
				t.Run(name, func(t *testing.T) {
					want := decodeLogits(t, cfg, newDecodeKernel(kernel, cfg),
						prov.mk(), exec.Serial{}, steps)
					pool := exec.NewPool(width)
					defer pool.Close()
					got := decodeLogits(t, cfg, newDecodeKernel(kernel, cfg),
						prov.mk(), pool, steps)
					if len(got) != len(want) {
						t.Fatalf("step counts differ: %d vs %d", len(got), len(want))
					}
					for s := range want {
						for v := range want[s] {
							if want[s][v] != got[s][v] {
								t.Fatalf("step %d vocab %d: serial %g != pool %g",
									s, v, want[s][v], got[s][v])
							}
						}
					}
				})
			}
		}
	}
}

// TestDefaultDecoderBitIdenticalToSerial checks the default a library
// decoder gets — Exec = exec.Shared(), the process-wide pool — against
// Exec = nil (serial) for every kernel on both cache providers, over a
// 100-token prompt (four prompt chunks, exact attention on the pool) and
// 64 generation steps. Every logit must match bit for bit.
func TestDefaultDecoderBitIdenticalToSerial(t *testing.T) {
	cfg := parallelTestConfig()
	const prompt, steps = 100, 64
	providers := []struct {
		name string
		mk   func() model.CacheProvider
	}{
		{"dense", func() model.CacheProvider { return nil }},
		{"paged", func() model.CacheProvider { return serve.NewPool(5, cfg.HeadDim, 0).Provider() }},
	}
	for _, kernel := range DecodeKernels() {
		for _, prov := range providers {
			t.Run(kernel+"/"+prov.name, func(t *testing.T) {
				serial := func(dec *model.Decoder) { dec.Exec = nil }
				want := decodeAll(cfg, newDecodeKernel(kernel, cfg), prov.mk(), serial, prompt, steps)
				got := decodeAll(cfg, newDecodeKernel(kernel, cfg), prov.mk(), nil, prompt, steps)
				for s := range want {
					for v := range want[s] {
						if want[s][v] != got[s][v] {
							t.Fatalf("step %d vocab %d: serial %g != default %g",
								s, v, want[s][v], got[s][v])
						}
					}
				}
			})
		}
	}
}

// TestSharedExecutorGoroutinesBounded checks that decoders share one pool:
// building, stepping and releasing 200 default decoders starts at most the
// shared pool's GOMAXPROCS-1 workers, not a pool per decoder.
func TestSharedExecutorGoroutinesBounded(t *testing.T) {
	cfg := parallelTestConfig()
	params := model.NewParams(cfg, 79)
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		dec := model.NewDecoder(params, attention.NewTokenPicker(1e-3))
		dec.MustPrompt([]int{1, 2, 3})
		dec.MustStep(i % cfg.VocabSize)
		dec.Release()
	}
	if grew, limit := runtime.NumGoroutine()-before, runtime.GOMAXPROCS(0)-1; grew > limit {
		t.Fatalf("200 decoders raised the goroutine count by %d, want <= %d", grew, limit)
	}
}

// TestParallelDecodeRace drives every kernel through the pool executor with
// enough steps that head tasks overlap. It asserts only sane statistics —
// its job is to put the concurrent Attend paths (slot scratch, stats
// shards, side-car syncs, SpAtten's importance merge) in front of the race
// detector, which `make check` runs it under.
func TestParallelDecodeRace(t *testing.T) {
	cfg := parallelTestConfig()
	params := model.NewParams(cfg, 78)
	pool := exec.NewPool(4)
	defer pool.Close()
	for _, kernel := range DecodeKernels() {
		t.Run(kernel, func(t *testing.T) {
			k := newDecodeKernel(kernel, cfg)
			dec := model.NewDecoder(params, k)
			dec.Exec = pool
			prompt := make([]int, 16)
			for i := range prompt {
				prompt[i] = (i * 7) % cfg.VocabSize
			}
			dec.MustPrompt(prompt)
			for i := 0; i < 64; i++ {
				dec.MustStep((i * 3) % cfg.VocabSize)
			}
			if sk, ok := k.(statKernel); ok {
				st := sk.Stats()
				wantInstances := int64(64 * cfg.Layers * cfg.Heads)
				if st.Instances != wantInstances {
					t.Fatalf("stats shards lost instances: %d, want %d",
						st.Instances, wantInstances)
				}
			}
		})
	}
}
