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

// TestIterationAdvancesOneSession pins the scheduling unit: with eight
// mixed-length sessions queued behind one runner, every iteration advances
// exactly one session, so the iteration count equals the decode steps (every
// generated token past the first, which the last prompt chunk samples) plus
// the prompt chunks each session's Usage implies. An iteration that stepped
// several queued sessions would read fewer.
func TestIterationAdvancesOneSession(t *testing.T) {
	r := train.TestModel()
	const (
		sessions = 8
		maxNew   = 12
		chunk    = model.PromptChunk
	)
	hold := make(chan struct{})
	srv := NewServer(r.Params, Config{
		Workers:   1,
		BlockRows: 32,
		NewKernel: func() model.Kernel { return heldKernel{attention.NewTokenPicker(1e-3), hold} },
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
	var want int64
	for i, st := range streams {
		res := st.Result()
		u := res.Usage
		if res.Reason != ReasonLength || u.GeneratedTokens != maxNew {
			t.Fatalf("session %d finished %q with %d of %d tokens", i, res.Reason, u.GeneratedTokens, maxNew)
		}
		prefilled := u.PromptTokens - u.PrefixHitRows
		want += int64(u.GeneratedTokens-1) + int64(u.RecomputeTokens) + int64((prefilled+chunk-1)/chunk)
	}
	srv.Close()
	if got := srv.Metrics().BatchIterations.Value(); got != want {
		t.Fatalf("%d iterations, want %d: one per decode step and prompt chunk", got, want)
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
