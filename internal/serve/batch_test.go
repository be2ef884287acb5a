package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/train"
)

// batchTestKernels are the serving-eligible generation kernels (spatten
// accumulates per-sequence state and is excluded from serving by contract).
var batchTestKernels = []struct {
	name string
	mk   func() model.Kernel
}{
	{"exact", nil}, // nil NewKernel = exact attention
	{"quantized-exact", func() model.Kernel { return attention.NewQuantizedExact() }},
	{"token-picker", func() model.Kernel { return attention.NewTokenPicker(1e-3) }},
	{"oracle", func() model.Kernel { return attention.NewOracle(1e-3) }},
}

// TestIterationBatchingBitExact is the serving invariance gate: for every
// serving kernel and two pool block sizes — 16 rows, and 12, which the
// 32-row prompt chunks straddle — with two runners and prefix sharing on,
// tokens must equal the single-tenant serial reference bit for bit,
// whichever executor each iteration stepped on. The prompts run 24 to 73
// tokens, so most prefill in two or three chunks.
func TestIterationBatchingBitExact(t *testing.T) {
	r := train.TestModel()
	const (
		sessions = 8
		maxNew   = 24
	)
	prompts := testPrompts(r, sessions)

	for _, kc := range batchTestKernels {
		for _, blockRows := range []int{16, 12} {
			t.Run(fmt.Sprintf("%s/block-rows=%d", kc.name, blockRows), func(t *testing.T) {
				var newKernel func() model.Kernel
				if kc.mk != nil {
					newKernel = kc.mk
				}
				srv := NewServer(r.Params, Config{
					Workers:     2,
					BlockRows:   blockRows,
					SharePrefix: true,
					NewKernel:   newKernel,
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
						got[i] = append(got[i], ev.Token)
					}
					res := st.Result()
					if res.Reason != ReasonLength || res.Err != nil {
						t.Fatalf("session %d finished %q err=%v", i, res.Reason, res.Err)
					}
					if res.Usage.GeneratedTokens != maxNew {
						t.Fatalf("session %d generated %d, want %d", i, res.Usage.GeneratedTokens, maxNew)
					}
				}

				// Second wave: resubmitting a now-published prompt makes the
				// prefix index and CoW tail blocks participate, and
				// adopted sessions must stay bit-exact too.
				st2, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompts[0], MaxTokens: maxNew})
				if err != nil {
					t.Fatalf("second-wave submit: %v", err)
				}
				var got2 []int
				for ev := range st2.Events() {
					got2 = append(got2, ev.Token)
				}
				if res := st2.Result(); res.Usage.PrefixHitRows == 0 {
					t.Fatal("second-wave session adopted no prefix rows under batching")
				}

				srv.Close()
				met := srv.Metrics()
				rep := srv.Report()

				for i, p := range prompts {
					var k model.Kernel
					if kc.mk != nil {
						k = kc.mk()
					}
					want := decodeSerial(t, r.Params, k, p, maxNew)
					if len(got[i]) != len(want) {
						t.Fatalf("session %d emitted %d tokens, want %d", i, len(got[i]), len(want))
					}
					for j := range want {
						if got[i][j] != want[j] {
							t.Fatalf("session %d token %d: batched %d != serial %d", i, j, got[i][j], want[j])
						}
					}
					if i == 0 {
						for j := range want {
							if got2[j] != want[j] {
								t.Fatalf("adopted session token %d: batched %d != serial %d", j, got2[j], want[j])
							}
						}
					}
				}

				// Batch-shape accounting: every decode step and every
				// prefilled prompt token went through an iteration.
				if met.BatchIterations.Value() == 0 {
					t.Fatal("no iterations recorded")
				}
				if got, want := met.BatchDecodeRows.Value(), rep.GenTokens+rep.RecomputeTokens; got != want {
					t.Fatalf("batch decode rows %d, want steps+replays %d", got, want)
				}
				if got, want := met.BatchPrefillRows.Value(), rep.PromptTokens; got != want {
					t.Fatalf("batch prefill rows %d, want prefilled prompt tokens %d", got, want)
				}
				if rep.Prefix.RowsReused == 0 {
					t.Fatal("shared prompt adopted no prefix rows under batching")
				}
				if st := srv.Pool().Stats(); st.InUse != 0 {
					t.Fatalf("%d blocks still leased after drain", st.InUse)
				}
			})
		}
	}
}

// TestIterationBatchingSchedulerFairness interleaves long-prompt prefills
// with short decode sessions under pool pressure and -race: chunked prefill
// must keep short sessions flowing (bounded queue wait), preempt/park/resume
// during batched iterations must replay bit-exactly, and the lifecycle trace
// must stay consistent. Submissions race from several goroutines so the
// scheduler's locking is exercised alongside the two runners.
func TestIterationBatchingSchedulerFairness(t *testing.T) {
	r := train.TestModel()
	cfg := r.Params.Cfg

	// A 100-token prompt plus 8 generated tokens peaks at 112 blocks, well
	// inside the 160-block pool on its own but over it alongside any other
	// session — prefills must chunk and churn around the decode traffic.
	longLen := 100
	if max := len(r.Held) - 1; longLen > max {
		longLen = max
	}
	long := r.Held[:longLen]
	shorts := testPrompts(r, 6)

	tracer := obs.NewTracer(1 << 15)
	var traceBuf bytes.Buffer
	sink := obs.NewJSONLWriter(&traceBuf)
	tracer.SetSink(sink)

	srv := NewServer(r.Params, Config{
		Workers:     2,
		BlockRows:   8,
		MaxBlocks:   40 * cfg.Layers * cfg.Heads,
		MaxPreempts: 128,
		SharePrefix: true,
		Tracer:      tracer,
		NewKernel:   func() model.Kernel { return attention.NewTokenPicker(1e-3) },
	})

	type job struct {
		prompt []int
		maxNew int
		got    []int
		res    Result
	}
	jobs := make([]*job, 0, 2+len(shorts))
	jobs = append(jobs,
		&job{prompt: long, maxNew: 8},
		&job{prompt: long[:longLen-3], maxNew: 8})
	for _, p := range shorts {
		jobs = append(jobs, &job{prompt: p, maxNew: 12})
	}

	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: j.prompt, MaxTokens: j.maxNew})
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			for ev := range st.Events() {
				j.got = append(j.got, ev.Token)
			}
			j.res = st.Result()
		}(j)
	}
	wg.Wait()
	srv.Close()
	met := srv.Metrics()
	rep := srv.Report()

	// No session starves: everything finishes with its full budget, and the
	// queue-wait digest stays bounded (a starved session would park its
	// whole lifetime there). The bound is generous — the assertion is about
	// starvation, not speed.
	for i, j := range jobs {
		if j.res.Reason != ReasonLength || j.res.Err != nil {
			t.Fatalf("job %d finished %q err=%v", i, j.res.Reason, j.res.Err)
		}
		if len(j.got) != j.maxNew {
			t.Fatalf("job %d emitted %d tokens, want %d", i, len(j.got), j.maxNew)
		}
	}
	if q95 := met.QueueWait.Quantile(0.95); q95 > 5.0 {
		t.Fatalf("p95 queue wait %.2fs: sessions starved behind long prefills", q95)
	}

	// Preempt/park/resume during batched iterations replays bit-exactly.
	for i, j := range jobs {
		want := decodeSerial(t, r.Params, attention.NewTokenPicker(1e-3), j.prompt, j.maxNew)
		for k := range want {
			if j.got[k] != want[k] {
				t.Fatalf("job %d token %d: batched %d != serial %d", i, k, j.got[k], want[k])
			}
		}
	}

	// Usage counters reconcile with the batch-row accounting.
	if got, want := met.BatchDecodeRows.Value(), rep.GenTokens+rep.RecomputeTokens; got != want {
		t.Fatalf("batch decode rows %d, want %d", got, want)
	}
	if got, want := met.BatchPrefillRows.Value(), rep.PromptTokens; got != want {
		t.Fatalf("batch prefill rows %d, want %d", got, want)
	}

	// The lifecycle trace must hold together: monotonic per-session order,
	// every park matched by a resume, one finish per session.
	if err := sink.Flush(); err != nil {
		t.Fatalf("trace sink: %v", err)
	}
	events, err := obs.ParseTrace(&traceBuf)
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	if err := obs.ValidateTimeline(events, false); err != nil {
		t.Fatalf("trace inconsistent: %v", err)
	}
}

// TestConfigValidateRejectsNegatives pins the typed-error contract for the
// scheduling knobs whose negatives were previously coerced silently.
func TestConfigValidateRejectsNegatives(t *testing.T) {
	cases := []struct {
		field string
		cfg   Config
	}{
		{"SpeculateK", Config{SpeculateK: -1}},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Fatalf("%s: negative value validated", tc.field)
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Fatalf("%s: error %v does not match ErrBadConfig", tc.field, err)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Fatalf("%s: error %v does not name the field", tc.field, err)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate (defaults apply): %v", err)
	}
	if err := (Config{Workers: 2, BlockRows: 16, SpeculateK: 2}).Validate(); err != nil {
		t.Fatalf("positive config must validate: %v", err)
	}

	// NewServer refuses to start on an invalid config, panicking with the
	// same typed error.
	r := train.TestModel()
	defer func() {
		err, ok := recover().(error)
		if !ok || !errors.Is(err, ErrBadConfig) {
			t.Fatalf("NewServer panic = %v, want ErrBadConfig", err)
		}
	}()
	NewServer(r.Params, Config{SpeculateK: -1})
	t.Fatal("NewServer accepted a negative SpeculateK")
}
