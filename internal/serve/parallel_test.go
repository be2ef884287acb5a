package serve

import (
	"context"
	"errors"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/train"
)

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
