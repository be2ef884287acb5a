package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/train"
)

// TestLoneRunnerRoundRobinFairness: one runner with eight sessions queued
// must interleave them itself, one session per iteration, so every session
// emits its first token before any session has generated all of its tokens.
// A scheduler that kept stepping the session it just stepped would finish
// session 0 first and start the rest one by one. The kernel holds the first
// step until every session is queued, so a descheduled submitter cannot
// let session 0 finish alone.
func TestLoneRunnerRoundRobinFairness(t *testing.T) {
	r := train.TestModel()
	const (
		sessions = 8
		maxNew   = 24
	)
	prompts := testPrompts(r, sessions)
	hold := make(chan struct{})
	srv := NewServer(r.Params, Config{
		Workers:   1,
		BlockRows: 32,
		NewKernel: func() model.Kernel { return heldKernel{attention.NewTokenPicker(1e-3), hold} },
	})
	streams := make([]*Stream, sessions)
	submitted := make([]time.Time, sessions)
	for i, p := range prompts {
		submitted[i] = time.Now()
		st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: p, MaxTokens: maxNew})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		streams[i] = st
	}
	close(hold)
	first := make([]time.Time, sessions)
	var firstFinish time.Time
	for i, st := range streams {
		res := st.Result()
		if res.Reason != ReasonLength || res.Usage.GeneratedTokens != maxNew {
			t.Fatalf("session %d finished %q with %d tokens", i, res.Reason, res.Usage.GeneratedTokens)
		}
		first[i] = submitted[i].Add(res.TTFT)
		if fin := submitted[i].Add(res.Elapsed); firstFinish.IsZero() || fin.Before(firstFinish) {
			firstFinish = fin
		}
	}
	srv.Close()
	for i, f := range first {
		if !f.Before(firstFinish) {
			t.Fatalf("session %d emitted its first token %v after the first session finished",
				i, f.Sub(firstFinish))
		}
	}

	rep := srv.Report()
	cfg := r.Params.Cfg
	eager := int64(sessions) * int64(cfg.MaxSeq) * int64(cfg.Layers*cfg.Heads*2)
	if got := rep.Pool.AllocatedRows(); got >= eager {
		t.Fatalf("pool backed %d rows, eager allocation %d", got, eager)
	}
	if pr := rep.Attn.PruningRatio(); !(pr > 1) {
		t.Fatalf("pruning ratio %g, want > 1", pr)
	}
}

// TestIterationBatchingCoSchedulesRows: the same mixed-length traffic at a
// row budget above zero must put more token rows into the mean iteration
// than at budget zero (one session per iteration), where only prefill
// chunks carry more than one row. A budget that degenerated to one session
// per iteration would read the same occupancy twice.
func TestIterationBatchingCoSchedulesRows(t *testing.T) {
	r := train.TestModel()
	const (
		sessions = 8
		maxNew   = 12
	)
	occupancy := func(budget int) float64 {
		hold := make(chan struct{})
		srv := NewServer(r.Params, Config{
			Workers:        1,
			BlockRows:      32,
			PromptChunk:    16,
			MaxBatchTokens: budget,
			NewKernel:      func() model.Kernel { return heldKernel{attention.NewTokenPicker(1e-3), hold} },
		})
		var streams []*Stream
		for i, p := range testPrompts(r, sessions) {
			st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: p, MaxTokens: maxNew})
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			streams = append(streams, st)
		}
		close(hold)
		for i, st := range streams {
			if res := st.Result(); res.Usage.GeneratedTokens != maxNew {
				t.Fatalf("budget %d: session %d generated %d of %d tokens",
					budget, i, res.Usage.GeneratedTokens, maxNew)
			}
		}
		srv.Close() // a runner books its row counters after the iteration
		met := srv.Metrics()
		if met.BatchIterations.Value() == 0 {
			t.Fatalf("budget %d: no iterations recorded", budget)
		}
		return met.BatchRows.Mean()
	}
	single, batched := occupancy(0), occupancy(48)
	if !(batched > single) || batched <= 1 {
		t.Fatalf("mean batch occupancy %.2f rows at budget 48, %.2f at budget 0; expected cross-session batching",
			batched, single)
	}
}

// Shared-prefix traffic: every prompt is the same 96-token system prompt
// plus a distinct 8-token suffix.
const (
	sharedPrefixLen = 96
	sharedSuffixLen = 8
)

// sharedPrefixPrompts builds n shared-prefix prompts from the held-out stream.
func sharedPrefixPrompts(r *train.Result, n int) [][]int {
	prefix := r.Held[:sharedPrefixLen]
	prompts := make([][]int, n)
	for i := range prompts {
		start := (sharedPrefixLen + i*sharedSuffixLen) % (len(r.Held) - sharedSuffixLen)
		p := append([]int(nil), prefix...)
		prompts[i] = append(p, r.Held[start:start+sharedSuffixLen]...)
	}
	return prompts
}

// serveSharedPrefix runs prompts through a prefix-sharing server: the first
// session alone and drained, so it publishes the prefix, then the rest
// together. It returns the drained server's report.
func serveSharedPrefix(t *testing.T, r *train.Result, prompts [][]int, maxNew int, tracer *obs.Tracer) Report {
	t.Helper()
	srv := NewServer(r.Params, Config{
		Workers:     2,
		BlockRows:   32,
		SharePrefix: true,
		Tracer:      tracer,
		NewKernel:   func() model.Kernel { return attention.NewTokenPicker(1e-3) },
	})
	submit := func(i int) *Stream {
		st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompts[i], MaxTokens: maxNew})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		return st
	}
	finish := func(i int, st *Stream) {
		if res := st.Result(); res.Reason != ReasonLength {
			t.Fatalf("session %d finished %q err=%v", i, res.Reason, res.Err)
		}
	}
	finish(0, submit(0))
	streams := make([]*Stream, len(prompts))
	for i := 1; i < len(prompts); i++ {
		streams[i] = submit(i)
	}
	for i := 1; i < len(prompts); i++ {
		finish(i, streams[i])
	}
	srv.Close()
	return srv.Report()
}

// TestPrefixSharingAdoptsPublishedPrefix: once one session has published the
// shared prefix, every follower's admission probe hits it, prefill runs on
// the suffixes only (at least 2x fewer prompt tokens than the prompts hold),
// and the pool drains to zero referenced blocks.
func TestPrefixSharingAdoptsPublishedPrefix(t *testing.T) {
	r := train.TestModel()
	const sessions = 5
	prompts := sharedPrefixPrompts(r, sessions)
	rep := serveSharedPrefix(t, r, prompts, 12, nil)

	if want := float64(sessions-1) / sessions; rep.Prefix.HitRate() < want {
		t.Fatalf("hit rate %.2f, want >= %.2f", rep.Prefix.HitRate(), want)
	}
	var promptToks int64
	for _, p := range prompts {
		promptToks += int64(len(p))
	}
	if savings := float64(promptToks) / float64(rep.PromptTokens); savings < 2 {
		t.Fatalf("prefilled %d of %d prompt tokens (%.2fx savings), want >= 2x",
			rep.PromptTokens, promptToks, savings)
	}
	if rep.Pool.InUse != 0 {
		t.Fatalf("%d blocks still referenced after drain", rep.Pool.InUse)
	}
}

// TestPrefixSharingTraceRoundTrip records a shared-prefix run through the
// JSONL sink and replays it through the offline pipeline the simulator uses:
// parse, strict timeline validation, summary and step extraction. The trace
// must re-derive the engine's own accounting, so a recorded file is a
// faithful substitute for the live run.
func TestPrefixSharingTraceRoundTrip(t *testing.T) {
	r := train.TestModel()
	const sessions = 4
	tracer := obs.NewTracer(1 << 14)
	var buf bytes.Buffer
	sink := obs.NewJSONLWriter(&buf)
	tracer.SetSink(sink)
	rep := serveSharedPrefix(t, r, sharedPrefixPrompts(r, sessions), 8, tracer)
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush trace: %v", err)
	}

	events, err := obs.ParseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse recorded trace: %v", err)
	}
	if uint64(len(events)) != tracer.Total() {
		t.Fatalf("sink recorded %d events, tracer %d", len(events), tracer.Total())
	}
	// The whole run fits the ring, so the timeline must validate strictly:
	// monotonic timestamps, submit-first/finish-last, preempts matched by
	// resumes, per-session adopt sums consistent with the finish rows.
	if err := obs.ValidateTimeline(events, false); err != nil {
		t.Fatalf("trace inconsistent: %v", err)
	}

	sum := obs.Summarize(events)
	if sum.Sessions != sessions || sum.Finished != sessions {
		t.Fatalf("trace saw %d sessions (%d finished), want %d", sum.Sessions, sum.Finished, sessions)
	}
	reused := rep.Prefix.RowsReused
	if reused == 0 {
		t.Fatal("no prefix rows reused")
	}
	if sum.PrefixRows != reused {
		t.Fatalf("trace adopt rows %d, engine reused %d", sum.PrefixRows, reused)
	}
	var finishAdopt int64
	for _, ev := range events {
		if ev.Kind == obs.KindFinish {
			finishAdopt += int64(ev.Tokens)
		}
	}
	if finishAdopt != reused {
		t.Fatalf("finish events carry %d adopted rows, engine reused %d", finishAdopt, reused)
	}

	// The simulator's extraction: every decode step plus every prefill
	// chunk becomes one attention instance, and subsampling keeps shape.
	steps := obs.ReplaySteps(events)
	if len(steps) == 0 {
		t.Fatal("no attention steps extracted")
	}
	var decodes, prefillToks int
	for _, s := range steps {
		if s.Rows < 1 {
			t.Fatalf("step sample with %d rows", s.Rows)
		}
		if s.Prefill {
			prefillToks += int(s.Tokens)
		} else if !s.Replay {
			decodes++
		}
	}
	if decodes != sum.DecodeSteps {
		t.Fatalf("extracted %d decode samples, summary counted %d", decodes, sum.DecodeSteps)
	}
	if int64(prefillToks) != sum.PrefillTokens || int64(prefillToks) != rep.PromptTokens {
		t.Fatalf("prefill tokens: samples %d, summary %d, engine %d",
			prefillToks, sum.PrefillTokens, rep.PromptTokens)
	}
	if thin := obs.SampleEvenly(steps, 8); len(thin) != 8 {
		t.Fatalf("SampleEvenly kept %d of %d samples, want 8", len(thin), len(steps))
	}
}
