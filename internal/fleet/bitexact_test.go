package fleet

import (
	"context"
	"fmt"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/sample"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/train"
)

// fleetTestKernels is the serving-kernel matrix (spatten is excluded from
// serving by contract: it carries per-sequence state across Attend calls).
var fleetTestKernels = []struct {
	name string
	mk   func() model.Kernel
}{
	{"exact", nil}, // nil NewKernel = exact attention
	{"quantized-exact", func() model.Kernel { return attention.NewQuantizedExact() }},
	{"token-picker", func() model.Kernel { return attention.NewTokenPicker(1e-3) }},
	{"oracle", func() model.Kernel { return attention.NewOracle(1e-3) }},
}

// fleetTestRequests builds shared-system-prompt traffic: two prefix groups
// (two "tenants" with distinct system prompts), each session a group prefix
// plus its own suffix, alternating greedy and seeded sampling.
func fleetTestRequests(r *train.Result, sessions, prefixLen int) []Request {
	prefixes := [][]int{r.Held[:prefixLen], r.Held[128 : 128+prefixLen]}
	reqs := make([]Request, sessions)
	for i := range reqs {
		p := prefixes[i%2]
		prompt := append(append([]int(nil), p...), r.Held[256+4*i:260+4*i]...)
		req := Request{Tenant: fmt.Sprintf("tenant-%d", i%2)}
		req.Prompt = prompt
		req.MaxTokens = 12
		req.RequestID = fmt.Sprintf("bitexact-%d", i)
		if i%2 == 1 {
			req.Sampling = sample.Config{Temperature: 0.8, TopK: 20, Seed: int64(i)}
		}
		reqs[i] = req
	}
	return reqs
}

// TestFleetServingBitExact is the fleet half of the repo's core invariant,
// gated in make check on one core and on every core: for every serving
// kernel, a fleet of 2 and of 4 replicas with affinity routing — its engines
// at iteration row budget 0 and 16 — must produce token streams bit-identical
// to a single budget-0 engine given the same seeded requests. Routing places
// sessions and the budget groups their rows; neither may touch generation.
func TestFleetServingBitExact(t *testing.T) {
	r := train.TestModel()
	const sessions = 8

	for _, kc := range fleetTestKernels {
		engineCfg := serve.Config{
			Workers:     2,
			BlockRows:   16,
			SharePrefix: true,
			NewKernel:   kc.mk,
		}
		reqs := fleetTestRequests(r, sessions, 48)

		// Single-engine reference streams.
		single := serve.NewServer(r.Params, engineCfg)
		want := collectAll(t, func(req Request) (*serve.Stream, error) {
			return single.Submit(context.Background(), req.GenerateRequest)
		}, reqs)
		single.Close()

		for _, shape := range [][2]int{{2, 0}, {2, 16}, {4, 0}, {4, 16}} {
			replicas, budget := shape[0], shape[1]
			t.Run(fmt.Sprintf("%s/replicas=%d/budget=%d", kc.name, replicas, budget), func(t *testing.T) {
				engineCfg := engineCfg
				engineCfg.MaxBatchTokens = budget
				fl := NewFleet(r.Params, Config{
					Replicas: replicas,
					Affinity: true,
					Serve:    engineCfg,
				})
				got := collectAll(t, func(req Request) (*serve.Stream, error) {
					return fl.Submit(context.Background(), req)
				}, reqs)
				fl.Close()

				for i := range reqs {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("session %d: fleet emitted %d tokens, single engine %d", i, len(got[i]), len(want[i]))
					}
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("session %d token %d: fleet %d != single %d", i, j, got[i][j], want[i][j])
						}
					}
				}

				rep := fl.Report()
				routed := rep.Routing.Affinity + rep.Routing.Spilled + rep.Routing.Balanced
				if routed != sessions {
					t.Fatalf("router decisions %d, want %d admitted sessions (%+v)", routed, sessions, rep.Routing)
				}
				if rep.Routing.Affinity == 0 {
					t.Fatalf("no session routed by affinity: %+v", rep.Routing)
				}
				if roll := rep.Rollup(); roll.Admitted != sessions {
					t.Fatalf("rollup admitted %d, want %d", roll.Admitted, sessions)
				}
				for i := 0; i < fl.Replicas(); i++ {
					if st := fl.Replica(i).Pool().Stats(); st.InUse != 0 {
						t.Fatalf("replica %d: %d blocks still referenced after drain", i, st.InUse)
					}
				}
			})
		}
	}
}

// collectAll submits every request in order and drains the streams in
// order, returning the emitted token ids per session.
func collectAll(t *testing.T, submit func(Request) (*serve.Stream, error), reqs []Request) [][]int {
	t.Helper()
	streams := make([]*serve.Stream, len(reqs))
	for i, req := range reqs {
		st, err := submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		streams[i] = st
	}
	out := make([][]int, len(reqs))
	for i, st := range streams {
		for ev := range st.Events() {
			out[i] = append(out[i], ev.Token)
		}
		if res := st.Result(); res.Reason != serve.ReasonLength || res.Err != nil {
			t.Fatalf("session %d finished %q err=%v", i, res.Reason, res.Err)
		}
	}
	return out
}
