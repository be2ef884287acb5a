package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/train"
)

// This file keeps the speculative-decoding serving comparison runnable until
// benchmark/ measures speculation itself: acceptance rate and tok/s against
// speculation off. BenchmarkSpeculativeServing reports both.

// SpeculativeOptions sizes the speculative-decoding comparison: the same
// greedy fleet decoded without drafting and then with n-gram drafting.
type SpeculativeOptions struct {
	Sessions  int
	PromptLen int // shortest prompt; session i adds i*Stride tokens
	Stride    int
	MaxNew    int     // tokens generated per session
	Workers   int     // server decode workers
	BlockRows int     // KV pool granularity
	K         int     // draft window ceiling (per-session adaptive below it)
	Threshold float64 // Token-Picker pruning threshold of the target model
}

// DefaultSpeculativeOptions is the profile BenchmarkSpeculativeServing runs.
func DefaultSpeculativeOptions() SpeculativeOptions {
	return SpeculativeOptions{
		Sessions:  8,
		PromptLen: 24,
		Stride:    5,
		MaxNew:    32,
		Workers:   4,
		BlockRows: 32,
		K:         4,
		Threshold: 1e-3,
	}
}

// SpeculativeResult is the outcome of one speculative-decoding comparison:
// prompt-lookup drafting against the no-speculation baseline. TokensMatch
// is the contract, not a metric: drafting changes how tokens are computed,
// never which tokens come out.
//
// On this CPU-bound demo model the verify pass really does pay for its extra
// rows, so wall-clock speedup tracks (acceptance × batching efficiency) and
// can dip below 1.0 at low acceptance — the honest trade the paper's
// memory-bound regime tilts the other way, where k+1 rows cost roughly one
// weight sweep.
type SpeculativeResult struct {
	TotalTokens    int64   // generated tokens per arm
	Speedup        float64 // wall clock of the baseline / of the drafting arm
	Drafted        int64   // tokens proposed by the draft source
	Accepted       int64   // drafts confirmed by exact verification
	AcceptanceRate float64 // Accepted / Drafted
	TokensMatch    bool    // bit-identical to the baseline streams
}

// servingPrompts builds synthetic mixed-length traffic: session i's prompt
// has promptLen + i*stride tokens. Lengths are clamped to the held-out
// stream so oversized option sets degrade into repeated full-length prompts
// instead of slicing out of range.
func servingPrompts(r *train.Result, sessions, promptLen, stride int) [][]int {
	prompts := make([][]int, sessions)
	for i := range prompts {
		l := promptLen + i*stride
		if l < 1 {
			l = 1
		}
		if l >= len(r.Held) {
			l = len(r.Held) - 1
		}
		start := (i * 17) % (len(r.Held) - l)
		prompts[i] = r.Held[start : start+l]
	}
	return prompts
}

// runServingArm decodes prompts through one server config and returns the
// emitted token streams, the wall-clock seconds from the first submit to the
// last token, and the server's metrics.
func runServingArm(r *train.Result, cfg serve.Config, prompts [][]int, maxNew int) (
	toks [][]int, wall float64, met *serve.Metrics) {
	srv := serve.NewServer(r.Params, cfg)
	defer srv.Close()
	start := time.Now()
	streams := make([]*serve.Stream, len(prompts))
	for i, p := range prompts {
		st, err := srv.Submit(context.Background(), serve.GenerateRequest{Prompt: p, MaxTokens: maxNew})
		if err != nil {
			panic(fmt.Sprintf("bench: submit: %v", err))
		}
		streams[i] = st
	}
	toks = make([][]int, len(prompts))
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *serve.Stream) {
			defer wg.Done()
			for ev := range st.Events() {
				toks[i] = append(toks[i], ev.Token)
			}
		}(i, st)
	}
	wg.Wait()
	return toks, time.Since(start).Seconds(), srv.Metrics()
}

// sameStreams reports whether a and b hold identical token streams.
func sameStreams(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// CompareSpeculative decodes the same greedy fleet through the serving
// engine once without speculation and once with prompt-lookup drafting, and
// reports speedup, acceptance, and stream equality.
func CompareSpeculative(r *train.Result, o SpeculativeOptions) SpeculativeResult {
	prompts := servingPrompts(r, o.Sessions, o.PromptLen, o.Stride)
	cfg := serve.Config{
		Workers:     o.Workers,
		BlockRows:   o.BlockRows,
		SharePrefix: true,
		NewKernel:   func() model.Kernel { return attention.NewTokenPicker(o.Threshold) },
	}
	baseToks, baseSec, _ := runServingArm(r, cfg, prompts, o.MaxNew)
	cfg.SpeculateK = o.K
	toks, wall, met := runServingArm(r, cfg, prompts, o.MaxNew)

	res := SpeculativeResult{
		Speedup:     baseSec / wall,
		Drafted:     met.SpecDrafted.Value(),
		Accepted:    met.SpecAccepted.Value(),
		TokensMatch: sameStreams(toks, baseToks),
	}
	for _, t := range baseToks {
		res.TotalTokens += int64(len(t))
	}
	if res.Drafted > 0 {
		res.AcceptanceRate = float64(res.Accepted) / float64(res.Drafted)
	}
	return res
}
