package serve

import (
	"context"
	"errors"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/train"
)

// TestHeadParallelServingBitExact runs the continuous batcher
// with intra-step head parallelism on every worker and demands the exact
// token streams of single-tenant serial decoding: the executor must be
// invisible to the numerics even while sessions hop between workers (and
// therefore between executors) across iterations.
func TestHeadParallelServingBitExact(t *testing.T) {
	r := train.TestModel()
	const sessions, maxNew = 6, 24
	prompts := testPrompts(r, sessions)

	srv := NewServer(r.Params, Config{
		Workers:      3,
		HeadParallel: 2,
		BlockRows:    16,
		NewKernel:    func() model.Kernel { return attention.NewTokenPicker(1e-3) },
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
	}
	srv.Close()

	for i, p := range prompts {
		want := decodeSerial(t, r.Params, attention.NewTokenPicker(1e-3), p, maxNew)
		if len(got[i]) != len(want) {
			t.Fatalf("session %d emitted %d tokens, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("session %d token %d: head-parallel %d != serial %d",
					i, j, got[i][j], want[j])
			}
		}
	}
}

// TestHeadParallelCancellationRace cancels a session that is
// mid-generation on a head-parallel worker. The iteration in flight finishes
// its layer batches on the pool executor, the session must still terminate
// as canceled, and every KV block must come back to the pool.
func TestHeadParallelCancellationRace(t *testing.T) {
	r := train.TestModel()
	srv := NewServer(r.Params, Config{
		Workers:      2,
		HeadParallel: 3,
		BlockRows:    8,
		NewKernel:    func() model.Kernel { return attention.NewQuantizedExact() },
	})
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
		t.Fatalf("%d blocks leaked by canceled head-parallel session", pst.InUse)
	}
}

// TestHeadParallelPoolRecyclingStaysBitExact exercises lease recycling
// while pool executors are mid-layer: a tight MaxBlocks forces concurrent
// sessions to contend for blocks, finished sessions recycle their leases
// under running head-parallel batches, and a final fresh session — decoded
// entirely on recycled blocks — must match an untouched dense serial
// decoder bit for bit (a stale quantized side-car or a cross-slot scratch
// leak would diverge it).
func TestHeadParallelPoolRecyclingStaysBitExact(t *testing.T) {
	r := train.TestModel()
	srv := NewServer(r.Params, Config{
		Workers:      3,
		HeadParallel: 2,
		BlockRows:    4,
		MaxBlocks:    1200,
		NewKernel:    func() model.Kernel { return attention.NewQuantizedExact() },
	})

	// Waves of sessions: enough concurrency that some dispatches overlap
	// finishing sessions returning blocks to the pool.
	const maxNew = 12
	for wave := 0; wave < 3; wave++ {
		prompts := testPrompts(r, 6)
		streams := make([]*Stream, 0, len(prompts))
		for i, p := range prompts {
			st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: p, MaxTokens: maxNew})
			if err != nil {
				t.Fatalf("wave %d submit %d: %v", wave, i, err)
			}
			streams = append(streams, st)
		}
		for i, st := range streams {
			res := st.Result()
			// ReasonRejected is acceptable under block pressure; anything
			// else but a clean finish is a bug.
			if res.Reason != ReasonLength && res.Reason != ReasonRejected {
				t.Fatalf("wave %d session %d finished %q err=%v", wave, i, res.Reason, res.Err)
			}
		}
	}
	if pst := srv.Pool().Stats(); pst.InUse != 0 {
		t.Fatalf("blocks leaked across waves: %+v", pst)
	}
	if pst := srv.Pool().Stats(); pst.Recycled() == 0 {
		t.Fatalf("waves never recycled a lease: %+v", pst)
	}

	// Final probe session on heavily recycled blocks vs fresh dense serial.
	prompt := r.Held[:20]
	st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: maxNew})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for ev := range st.Events() {
		tok := ev.Token
		got = append(got, tok)
	}
	if res := st.Result(); res.Reason != ReasonLength {
		t.Fatalf("probe finished %q err=%v", res.Reason, res.Err)
	}
	srv.Close()

	want := decodeSerial(t, r.Params, attention.NewQuantizedExact(), prompt, maxNew)
	if len(got) != len(want) {
		t.Fatalf("probe emitted %d tokens, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("probe token %d: recycled head-parallel %d != serial %d", j, got[j], want[j])
		}
	}
}
