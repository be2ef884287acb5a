package serve

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/train"
)

// TestMetricsReconcileUnderChurn hammers one engine with mixed traffic —
// concurrent generation, mid-stream cancellation, and pool pressure heavy
// enough to force the whole preemption ladder — then cross-checks three
// independent ledgers of the same history: the zero-alloc metrics counters,
// the per-session Result.Usage sums, and the lifecycle trace. Every token
// must be accounted identically in all three, or the instrumentation is
// double-counting (or dropping) work somewhere on the hot path. Run it
// under -race: the counters are sharded per worker and the tracer is shared.
// Both iteration row budgets run: one session per iteration, and several.
func TestMetricsReconcileUnderChurn(t *testing.T) {
	for _, budget := range []int{0, 16} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) { metricsReconcileUnderChurn(t, budget) })
	}
}

func metricsReconcileUnderChurn(t *testing.T, budget int) {
	r := train.TestModel()
	cfg := r.Params.Cfg

	tracer := obs.NewTracer(1 << 15) // large enough to hold every event: strict validation below
	var traceBuf bytes.Buffer
	sink := obs.NewJSONLWriter(&traceBuf)
	tracer.SetSink(sink)

	srv := NewServer(r.Params, Config{
		Workers:        3,
		BlockRows:      8,
		MaxBlocks:      12 * cfg.Layers * cfg.Heads, // ~1.5 sessions' working set
		MaxPreempts:    128,
		MaxBatchTokens: budget,
		SharePrefix:    true,
		Tracer:         tracer,
		NewKernel:      func() model.Kernel { return attention.NewTokenPicker(1e-3) },
	})

	const (
		submitters = 4
		perG       = 3
		maxNew     = 16
	)
	prompt := r.Held[:12]

	var (
		mu       sync.Mutex
		usageSum Usage
		finishes = map[FinishReason]int64{}
		withTok  int64 // sessions that emitted at least one token (TTFT observations)
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				st, err := srv.Submit(context.Background(), GenerateRequest{
					Prompt: prompt, MaxTokens: maxNew,
				})
				if err != nil {
					t.Errorf("submit %d/%d: %v", g, i, err)
					return
				}
				switch (g*perG + i) % 3 {
				case 1:
					// Cancel immediately: the session may die queued,
					// mid-prefill, or even finish first — all must reconcile.
					st.Cancel()
				case 2:
					// Cancel after the first token.
					if _, err := st.Next(context.Background()); err == nil {
						st.Cancel()
					}
				}
				for range st.Events() {
				}
				res := st.Result()
				mu.Lock()
				usageSum.PromptTokens += res.Usage.PromptTokens
				usageSum.GeneratedTokens += res.Usage.GeneratedTokens
				usageSum.PrefixHitRows += res.Usage.PrefixHitRows
				usageSum.RecomputeTokens += res.Usage.RecomputeTokens
				finishes[res.Reason]++
				if res.Usage.GeneratedTokens > 0 {
					withTok++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	srv.Close()

	met := srv.Metrics()
	rep := srv.Report()
	total := int64(submitters * perG)

	// Ledger 1 vs 2: metrics counters against per-session usage sums and the
	// engine report.
	if got := met.Admitted.Value(); got != total || got != rep.Admitted {
		t.Errorf("admitted counter %d, want %d (report %d)", got, total, rep.Admitted)
	}
	var finSum int64
	for reason, c := range met.Finished {
		v := c.Value()
		finSum += v
		if v != finishes[reason] {
			t.Errorf("finished{%s} counter %d, sessions saw %d", reason, v, finishes[reason])
		}
		if v != rep.Finished[reason] {
			t.Errorf("finished{%s} counter %d, report says %d", reason, v, rep.Finished[reason])
		}
	}
	if finSum != total {
		t.Errorf("finished counters sum %d, want %d", finSum, total)
	}
	if got := met.Generated.Value(); got != int64(usageSum.GeneratedTokens) {
		t.Errorf("generated counter %d, usage sum %d", got, usageSum.GeneratedTokens)
	}
	// Report.GenTokens counts decode Steps; each session's first token is
	// sampled from prompt logits, so emissions exceed it by exactly the
	// number of sessions that produced any output.
	if got := met.Generated.Value(); got != rep.GenTokens+withTok {
		t.Errorf("generated counter %d, report %d steps + %d first tokens", got, rep.GenTokens, withTok)
	}
	if got := met.PromptTokens.Value(); got != rep.PromptTokens {
		t.Errorf("prompt counter %d, report %d", got, rep.PromptTokens)
	}
	if got := met.Recomputed.Value(); got != int64(usageSum.RecomputeTokens) || got != rep.RecomputeTokens {
		t.Errorf("recompute counter %d, usage sum %d, report %d", got, usageSum.RecomputeTokens, rep.RecomputeTokens)
	}
	if got := met.PrefixRows.Value(); got != int64(usageSum.PrefixHitRows) || got != rep.Prefix.RowsReused {
		t.Errorf("prefix-rows counter %d, usage sum %d, report %d", got, usageSum.PrefixHitRows, rep.Prefix.RowsReused)
	}
	if got := met.Preemptions.Value(); got != rep.Preempted {
		t.Errorf("preemption counter %d, report %d", got, rep.Preempted)
	}
	if steals, selfs := met.LadderSteal.Value(), met.LadderSelf.Value(); steals+selfs != met.Preemptions.Value() {
		t.Errorf("ladder rungs %d steal + %d self != %d preemptions", steals, selfs, met.Preemptions.Value())
	}
	if got := met.TTFT.Count(); got != withTok {
		t.Errorf("TTFT observations %d, sessions with tokens %d", got, withTok)
	}
	// Every successful decode step — fresh or preemption replay — observes
	// the decode-step histogram exactly once, every prefill chunk that
	// consumed tokens the prefill-chunk one, and between them they book no
	// more than the iterations' wall time (an iteration whose every entry
	// failed its block lease advanced nothing and books nothing).
	if c := met.DecodeStep.Count(); c != rep.GenTokens+rep.RecomputeTokens {
		t.Errorf("decode-step observations %d, want %d steps + %d replays", c, rep.GenTokens, rep.RecomputeTokens)
	}
	if c := met.PrefillChunk.Count(); (c == 0) != (rep.PromptTokens == 0) || c > rep.PromptTokens {
		t.Errorf("prefill-chunk observations %d for %d prefilled tokens", c, rep.PromptTokens)
	}
	booked, wall := met.DecodeStep.Sum()+met.PrefillChunk.Sum(), met.BatchIteration.Sum()
	if booked <= 0 || booked > wall*(1+1e-9) {
		t.Errorf("step histograms book %gs, iterations took %gs", booked, wall)
	}

	// Ledger 3: the trace. The ring held everything, so validation is
	// strict — monotonic timestamps, parks matched by resumes, one finish
	// per session — and the finish rows must re-derive the usage sums.
	if err := sink.Flush(); err != nil {
		t.Fatalf("trace sink: %v", err)
	}
	events, err := obs.ParseTrace(&traceBuf)
	if err != nil {
		t.Fatalf("parse recorded trace: %v", err)
	}
	if uint64(len(events)) != tracer.Total() {
		t.Fatalf("sink recorded %d events, tracer %d", len(events), tracer.Total())
	}
	if err := obs.ValidateTimeline(events, false); err != nil {
		t.Fatalf("trace inconsistent: %v", err)
	}
	var traceFinishes, traceGen, traceAdopt int64
	for _, ev := range events {
		if ev.Kind == obs.KindFinish {
			traceFinishes++
			traceGen += int64(ev.Step)
			traceAdopt += int64(ev.Tokens)
		}
	}
	if traceFinishes != total {
		t.Errorf("trace holds %d finish events, want %d", traceFinishes, total)
	}
	if traceGen != int64(usageSum.GeneratedTokens) {
		t.Errorf("trace finish steps sum %d, usage generated %d", traceGen, usageSum.GeneratedTokens)
	}
	if traceAdopt != int64(usageSum.PrefixHitRows) {
		t.Errorf("trace finish adopt rows sum %d, usage prefix rows %d", traceAdopt, usageSum.PrefixHitRows)
	}
	if st := srv.Pool().Stats(); st.InUse != 0 {
		t.Errorf("%d blocks still referenced after drain", st.InUse)
	}
}
