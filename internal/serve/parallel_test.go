package serve

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
	"tokenpicker/internal/train"
)

// TestSharedPoolCancellationRace cancels a session that is mid-generation
// on a runner that is alone in its iteration, so it steps on the shared
// pool. The iteration in flight finishes its layer batches on the pool, the
// session must still terminate as canceled, and every KV block must come
// back to the pool.
func TestSharedPoolCancellationRace(t *testing.T) {
	r := train.TestModel()
	srv := NewServer(r.Params, Config{
		Workers:   2,
		BlockRows: 8,
		NewKernel: func() model.Kernel { return attention.NewQuantizedExact() },
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
		t.Fatalf("%d blocks leaked by canceled session", pst.InUse)
	}
}

// TestLoneRunnerStepsOnSharedPool serves one session on a two-runner
// server: the runner that pops it is alone mid-iteration, so its steps fan
// out over the shared pool and topick_exec_tasks_total rises.
func TestLoneRunnerStepsOnSharedPool(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the shared pool is serial on one CPU")
	}
	r := train.TestModel()
	srv := NewServer(r.Params, Config{Workers: 2})
	before := execTasks(t, srv)
	st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: r.Held[:16], MaxTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res := st.Result(); res.Reason != ReasonLength {
		t.Fatalf("result %+v, want length", res)
	}
	srv.Close()
	if after := execTasks(t, srv); after <= before {
		t.Fatalf("topick_exec_tasks_total %v -> %v: a lone runner did not use the shared pool", before, after)
	}
}

// probeKernel is exact attention that reports the executor of its first
// generation-phase layer on entered and then waits until hold closes.
type probeKernel struct {
	model.ExactKernel
	entered chan<- exec.Executor
	hold    <-chan struct{}
	probed  bool
}

func (k *probeKernel) AttendLayer(batch model.AttendBatch) {
	if !k.probed {
		k.probed = true
		k.entered <- batch.Exec
		<-k.hold
	}
	k.ExactKernel.AttendLayer(batch)
}

// TestBusyRunnerStepsSerially holds one session mid-iteration and then
// serves a second on the other runner, which finds the first busy and must
// step serially. (TestLoneRunnerStepsOnSharedPool covers the lone runner.)
func TestBusyRunnerStepsSerially(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the shared pool is serial on one CPU")
	}
	r := train.TestModel()
	entered := make(chan exec.Executor, 2)
	hold := make(chan struct{})
	srv := NewServer(r.Params, Config{Workers: 2, NewKernel: func() model.Kernel {
		return &probeKernel{entered: entered, hold: hold}
	}})
	var streams []*Stream
	var got []exec.Executor
	for i := 0; i < 2; i++ {
		st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: r.Held[8*i : 8*i+8], MaxTokens: 4})
		if err != nil {
			close(hold)
			t.Fatal(err)
		}
		streams = append(streams, st)
		got = append(got, <-entered)
	}
	close(hold)
	for _, st := range streams {
		if res := st.Result(); res.Reason != ReasonLength {
			t.Fatalf("result %+v, want length", res)
		}
	}
	srv.Close()
	if got[1] != (exec.Serial{}) {
		t.Errorf("runner beside a busy one stepped on %T, want serial", got[1])
	}
}

// execTasks scrapes topick_exec_tasks_total from the server's registry.
func execTasks(t *testing.T, srv *Server) float64 {
	t.Helper()
	var buf bytes.Buffer
	srv.Metrics().Registry.WritePrometheus(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "topick_exec_tasks_total "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatal("no topick_exec_tasks_total sample")
	return 0
}
