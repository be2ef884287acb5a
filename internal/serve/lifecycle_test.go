package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"tokenpicker/internal/model"
	"tokenpicker/internal/train"
)

// TestCloseIdempotent calls Close repeatedly and concurrently: every call
// must return (after the first shutdown completes) without panicking, and
// admission must stay rejected afterwards.
func TestCloseIdempotent(t *testing.T) {
	params := model.NewParams(model.TestConfig(), 9)
	srv := NewServer(params, Config{Workers: 2})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Close()
		}()
	}
	wg.Wait()
	srv.Close() // and once more after everything settled
	if _, err := srv.Submit(context.Background(), GenerateRequest{Prompt: []int{1}}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close: %v, want ErrServerClosed", err)
	}
}

// TestSubmitCloseRace hammers Submit from several goroutines while Close
// runs: every accepted session must finish (its stream must close), every
// rejected one must see ErrServerClosed, and the pool must drain to zero.
func TestSubmitCloseRace(t *testing.T) {
	r := train.TestModel()
	srv := NewServer(r.Params, Config{Workers: 2, BlockRows: 16, MaxSessions: 64})

	const submitters = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 8; i++ {
				st, err := srv.Submit(context.Background(), GenerateRequest{
					Prompt:    r.Held[g*4 : g*4+6],
					MaxTokens: 4,
				})
				if err != nil {
					if !errors.Is(err, ErrServerClosed) {
						t.Errorf("submit: %v", err)
					}
					return
				}
				res := st.Result() // must not hang: accepted sessions drain
				if res.Reason != ReasonLength {
					t.Errorf("accepted session finished %q err=%v", res.Reason, res.Err)
				}
			}
		}(g)
	}
	close(start)
	srv.Close()
	wg.Wait()
	srv.Close()
	if st := srv.Pool().Stats(); st.InUse != 0 {
		t.Fatalf("%d blocks still referenced after close", st.InUse)
	}
}

// TestSchedulerReleasesPoppedSlots reproduces the queue leak: a popped
// session's pointer must not stay reachable from the scheduler's backing
// array, or finished sessions' decoders and KV side-cars survive GC under
// sustained load.
// popOne pops the way a budget-0 runner does: exactly one session.
func popOne(t *testing.T, sc *scheduler) *session {
	t.Helper()
	batch := sc.popBatch(nil, 0, 32)
	if len(batch) != 1 {
		t.Fatalf("budget-0 popBatch returned %d sessions, want 1", len(batch))
	}
	return batch[0]
}

func TestSchedulerReleasesPoppedSlots(t *testing.T) {
	sc := &scheduler{}
	sc.cond = sync.NewCond(&sc.mu)
	a, b, c := &session{}, &session{}, &session{}
	sc.push(a)
	sc.push(b)
	sc.push(c)
	if got := popOne(t, sc); got != a {
		t.Fatalf("pop = %v, want first session", got)
	}
	live := 0
	for _, s := range sc.buf {
		if s != nil {
			live++
		}
	}
	if live != 2 {
		t.Fatalf("%d live slots in the backing array after pop, want 2 (popped slot must be nil'd)", live)
	}
	// Stall + drain: stalled sessions promote when the queue empties, and
	// their slots release too.
	d := &session{}
	sc.stall(d)
	want := []*session{b, c, d}
	for i, w := range want {
		if got := popOne(t, sc); got != w {
			t.Fatalf("pop %d = %v, want %v", i, got, w)
		}
	}
	for i, s := range sc.buf {
		if s != nil {
			t.Fatalf("slot %d still holds a session after full drain", i)
		}
	}
	if len(sc.stalled) != 0 {
		t.Fatalf("%d stalled sessions after drain", len(sc.stalled))
	}
}

// TestSchedulerStealPicksLeastProgressed checks victim selection: at most
// as progressed as the caller (equal progress still yields — identical
// prompts advance in lockstep), minimal progress wins, preemption budget
// respected, FIFO order preserved for the rest.
func TestSchedulerStealPicksLeastProgressed(t *testing.T) {
	sc := &scheduler{}
	sc.cond = sync.NewCond(&sc.mu)
	a := &session{promptPos: 10, generated: 5} // progress 15
	b := &session{promptPos: 4}                // progress 4: the victim
	c := &session{promptPos: 8, generated: 1}  // progress 9
	sc.push(a)
	sc.push(b)
	sc.push(c)

	if v := sc.steal(3, 3); v != nil {
		t.Fatalf("steal below every progress returned %v", v)
	}
	if v := sc.steal(4, 3); v != b {
		t.Fatalf("steal at equal progress returned %v, want the lockstep victim", v)
	}
	sc.push(b)
	if v := sc.steal(20, 3); v != b {
		t.Fatalf("steal returned %v, want the least-progressed session", v)
	}
	// Budget-exhausted sessions are not victims.
	b2 := &session{promptPos: 1, preempts: 3}
	sc.push(b2)
	if v := sc.steal(20, 3); v != c {
		t.Fatalf("steal returned %v, want c (b2 over budget)", v)
	}
	if got := popOne(t, sc); got != a {
		t.Fatalf("pop after steals = %v, want FIFO head", got)
	}
	if got := popOne(t, sc); got != b2 {
		t.Fatalf("pop after steals = %v, want b2", got)
	}
}

// TestStreamBufferCappedByPromptLength checks the over-reservation fix: the
// token buffer is bounded by what the context window can actually emit for
// this prompt, not by MaxSeq alone.
func TestStreamBufferCappedByPromptLength(t *testing.T) {
	cfg := model.TestConfig()
	cfg.MaxSeq = 64
	params := model.NewParams(cfg, 9)
	srv := NewServer(params, Config{Workers: 1})
	defer srv.Close()

	prompt := make([]int, 40)
	st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// 64-token window minus 40 prompt tokens leaves 24 generation steps plus
	// the token sampled from the prompt logits.
	if want := cfg.MaxSeq - len(prompt) + 1; cap(st.events) != want {
		t.Fatalf("stream buffer %d, want %d", cap(st.events), want)
	}
	if res := st.Result(); res.Reason != ReasonContextFull {
		t.Fatalf("finished %q, want context_full", res.Reason)
	}
}
