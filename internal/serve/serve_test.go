package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/train"
)

// decodeSerial is the single-tenant reference: one decoder, one kernel,
// greedy decoding. The server must reproduce it token for token.
func decodeSerial(t *testing.T, params *model.Params, kernel model.Kernel, prompt []int, maxNew int) []int {
	t.Helper()
	dec := model.NewDecoder(params, kernel)
	logits, err := dec.Prompt(prompt)
	if err != nil {
		t.Fatalf("serial prompt: %v", err)
	}
	var out []int
	tok := argmax(logits)
	for len(out) < maxNew {
		out = append(out, tok)
		if len(out) == maxNew {
			break
		}
		logits, err = dec.Step(tok)
		if err != nil {
			t.Fatalf("serial step: %v", err)
		}
		tok = argmax(logits)
	}
	return out
}

func argmax(x []float32) int {
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// testPrompts builds varied-length prompts from the held-out stream.
func testPrompts(r *train.Result, n int) [][]int {
	prompts := make([][]int, n)
	for i := range prompts {
		l := 24 + 7*i
		start := (i * 13) % (len(r.Held) - l)
		prompts[i] = r.Held[start : start+l]
	}
	return prompts
}

func TestContinuousBatchingMatchesSerialGreedy(t *testing.T) {
	r := train.TestModel()
	const (
		sessions = 10
		maxNew   = 48
	)
	prompts := testPrompts(r, sessions)

	srv := NewServer(r.Params, Config{
		Workers:   4,
		BlockRows: 32,
		NewKernel: func() model.Kernel { return attention.NewTokenPicker(1e-3) },
	})
	streams := make([]*Stream, sessions)
	for i, p := range prompts {
		st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: p, MaxTokens: maxNew})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		streams[i] = st
	}
	got := make([][]int, sessions)
	for i, st := range streams {
		for ev := range st.Events() {
			tok := ev.Token
			got[i] = append(got[i], tok)
		}
		res := st.Result()
		if res.Reason != ReasonLength || res.Err != nil {
			t.Fatalf("session %d finished %q err=%v", i, res.Reason, res.Err)
		}
		if res.Usage.GeneratedTokens != maxNew || res.Usage.PromptTokens != len(prompts[i]) {
			t.Fatalf("session %d generated %d/%d prompt %d/%d",
				i, res.Usage.GeneratedTokens, maxNew, res.Usage.PromptTokens, len(prompts[i]))
		}
	}
	srv.Close()

	// Interleaved decoding must be bit-identical to single-tenant decoding.
	for i, p := range prompts {
		want := decodeSerial(t, r.Params, attention.NewTokenPicker(1e-3), p, maxNew)
		if len(got[i]) != len(want) {
			t.Fatalf("session %d emitted %d tokens, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("session %d token %d: batched %d != serial %d", i, j, got[i][j], want[j])
			}
		}
	}

	rep := srv.Report()
	if rep.Admitted != sessions || rep.Completed() != sessions {
		t.Fatalf("report admitted %d completed %d", rep.Admitted, rep.Completed())
	}
	if rep.PeakConcurrent < 8 {
		t.Fatalf("peak concurrency %d, want >= 8", rep.PeakConcurrent)
	}
	if pr := rep.Attn.PruningRatio(); !(pr > 1) {
		t.Fatalf("fleet pruning ratio %g, want > 1", pr)
	}
	if rep.GenTokens != sessions*(maxNew-1) {
		// The first token of each session is sampled from prompt logits,
		// so Step runs maxNew-1 times per session.
		t.Fatalf("gen tokens %d, want %d", rep.GenTokens, sessions*(maxNew-1))
	}

	// The pooled cache must beat eager allocation by a wide margin: the
	// seed decoder allocated MaxSeq rows per K and V cache per head.
	pst := rep.Pool
	cfg := r.Params.Cfg
	eagerRows := int64(sessions) * int64(cfg.MaxSeq) * int64(cfg.Layers*cfg.Heads*2)
	if pst.AllocatedRows() >= eagerRows {
		t.Fatalf("pool allocated %d rows, eager would use %d", pst.AllocatedRows(), eagerRows)
	}
	// Stronger: fewer rows than even one eager cache plane (sessions x MaxSeq).
	if pst.AllocatedRows() >= int64(sessions)*int64(cfg.MaxSeq) {
		t.Fatalf("pool allocated %d rows, want < sessions x MaxSeq = %d",
			pst.AllocatedRows(), int64(sessions)*int64(cfg.MaxSeq))
	}
	if pst.InUse != 0 {
		t.Fatalf("%d blocks still leased after all sessions finished", pst.InUse)
	}
}

func TestSequentialSessionsRecycleBlocks(t *testing.T) {
	r := train.TestModel()
	srv := NewServer(r.Params, Config{Workers: 2, BlockRows: 16,
		NewKernel: func() model.Kernel { return attention.NewQuantizedExact() }})
	defer srv.Close()

	prompt := r.Held[:40]
	for i := 0; i < 3; i++ {
		st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: 8})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if res := st.Result(); res.Reason != ReasonLength {
			t.Fatalf("session %d: %+v", i, res)
		}
	}
	st := srv.Pool().Stats()
	if st.Recycled() == 0 {
		t.Fatalf("sequential sessions should recycle blocks: %+v", st)
	}
	// Sessions 2 and 3 are shaped exactly like session 1, so no fresh
	// allocation beyond the first session's working set.
	if st.Leases < 3*st.Allocated {
		t.Fatalf("leases %d < 3x allocated %d: later sessions allocated fresh blocks", st.Leases, st.Allocated)
	}
}

func TestCancellationReleasesSession(t *testing.T) {
	r := train.TestModel()
	srv := NewServer(r.Params, Config{Workers: 1, BlockRows: 16})
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	st, err := srv.Submit(ctx, GenerateRequest{Prompt: r.Held[:16], MaxTokens: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first token so the session is mid-generation, then cancel.
	if _, ok := <-st.Events(); !ok {
		t.Fatal("stream closed before first token")
	}
	cancel()
	res := st.Result()
	if res.Reason != ReasonCanceled || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("result %+v, want canceled", res)
	}
	if pst := srv.Pool().Stats(); pst.InUse != 0 {
		t.Fatalf("%d blocks leaked by canceled session", pst.InUse)
	}
}

func TestDeadlineFinishesSession(t *testing.T) {
	r := train.TestModel()
	srv := NewServer(r.Params, Config{Workers: 1})
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	st, err := srv.Submit(ctx, GenerateRequest{Prompt: r.Held[:16], MaxTokens: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	res := st.Result()
	if res.Reason != ReasonCanceled || !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("result %+v, want deadline exceeded", res)
	}
}

func TestContextFullFinishesGracefully(t *testing.T) {
	cfg := model.TestConfig()
	cfg.MaxSeq = 24
	params := model.NewParams(cfg, 9)
	srv := NewServer(params, Config{Workers: 2, BlockRows: 8})
	defer srv.Close()

	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8}
	st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	res := st.Result()
	if res.Reason != ReasonContextFull || res.Err != nil {
		t.Fatalf("result %+v, want context_full with nil err", res)
	}
	// Window = 24: 8 prompt + 16 generation steps; the token sampled after
	// the last successful step has already been emitted.
	if res.Usage.GeneratedTokens != cfg.MaxSeq-len(prompt)+1 {
		t.Fatalf("generated %d tokens into a %d window", res.Usage.GeneratedTokens, cfg.MaxSeq)
	}
}

func TestPromptLongerThanWindowAccountsConsumedTokens(t *testing.T) {
	cfg := model.TestConfig()
	cfg.MaxSeq = 24
	params := model.NewParams(cfg, 9)
	for _, budget := range []int{0, 16} {
		srv := NewServer(params, Config{Workers: 1, BlockRows: 8, PromptChunk: 10, MaxBatchTokens: budget})

		long := make([]int, 40) // 4 chunks; the window fills mid-third-chunk
		st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: long, MaxTokens: 4})
		if err != nil {
			t.Fatal(err)
		}
		res := st.Result()
		if res.Reason != ReasonContextFull || res.Usage.GeneratedTokens != 0 {
			t.Fatalf("budget %d: result %+v, want context_full with no generated tokens", budget, res)
		}
		if res.Usage.PromptTokens != cfg.MaxSeq {
			t.Fatalf("budget %d: PromptLen %d, want the %d tokens the decoder consumed", budget, res.Usage.PromptTokens, cfg.MaxSeq)
		}
		srv.Close()
		if rep := srv.Report(); rep.PromptTokens != int64(cfg.MaxSeq) {
			t.Fatalf("budget %d: fleet PromptTokens %d, want %d", budget, rep.PromptTokens, cfg.MaxSeq)
		}
	}
}

func TestPoolExhaustionRejectsSession(t *testing.T) {
	params := model.NewParams(model.TestConfig(), 9)
	// One block only: the very first EnsureLen pair cannot be satisfied.
	srv := NewServer(params, Config{Workers: 1, BlockRows: 8, MaxBlocks: 1})
	defer srv.Close()

	st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: []int{1, 2, 3}, MaxTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := st.Result()
	if res.Reason != ReasonRejected || !errors.Is(res.Err, ErrNoBlocks) {
		t.Fatalf("result %+v, want rejected with ErrNoBlocks", res)
	}
}

func TestSubmitValidation(t *testing.T) {
	params := model.NewParams(model.TestConfig(), 9)
	srv := NewServer(params, Config{Workers: 1, MaxSessions: 1})

	if _, err := srv.Submit(context.Background(), GenerateRequest{}); !errors.Is(err, ErrEmptyPrompt) {
		t.Fatalf("empty prompt: %v", err)
	}
	// Out-of-vocab tokens are rejected at admission: inside a worker they
	// would panic the decoder and take the whole server down.
	if _, err := srv.Submit(context.Background(), GenerateRequest{Prompt: []int{-1}}); !errors.Is(err, ErrBadToken) {
		t.Fatalf("negative token: %v", err)
	}
	big := params.Cfg.VocabSize
	if _, err := srv.Submit(context.Background(), GenerateRequest{Prompt: []int{1, big}}); !errors.Is(err, ErrBadToken) {
		t.Fatalf("over-vocab token: %v", err)
	}

	// Fill the single session slot with a canceled-later session.
	ctx, cancel := context.WithCancel(context.Background())
	st, err := srv.Submit(ctx, GenerateRequest{Prompt: []int{1, 2}, MaxTokens: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), GenerateRequest{Prompt: []int{1}}); !errors.Is(err, ErrBusy) {
		t.Fatalf("over MaxSessions: %v", err)
	}
	cancel()
	st.Result()
	srv.Close()
	if _, err := srv.Submit(context.Background(), GenerateRequest{Prompt: []int{1}}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("after close: %v", err)
	}
}
