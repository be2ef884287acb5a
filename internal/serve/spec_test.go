package serve

import (
	"bytes"
	"context"
	"testing"

	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/sample"
	"tokenpicker/internal/train"
)

// specServeBudgets are the iteration row budgets (Config.MaxBatchTokens)
// speculation must be invariant to: one session per iteration, and verify
// entries of several sessions sharing one engine step.
var specServeBudgets = []struct {
	name  string
	batch int
}{
	{"budget=0", 0},
	{"budget=32", 32},
}

// collectStreams submits every prompt and drains the streams in order.
func collectStreams(t *testing.T, srv *Server, prompts [][]int, maxNew int,
	sampling sample.Config) ([][]int, []Result) {
	t.Helper()
	streams := make([]*Stream, len(prompts))
	for i, p := range prompts {
		cfg := sampling
		if cfg.Temperature > 0 {
			cfg.Seed = int64(i + 1)
		}
		st, err := srv.Submit(context.Background(), GenerateRequest{
			Prompt: p, MaxTokens: maxNew, Sampling: cfg,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		streams[i] = st
	}
	got := make([][]int, len(prompts))
	res := make([]Result, len(prompts))
	for i, st := range streams {
		for ev := range st.Events() {
			got[i] = append(got[i], ev.Token)
		}
		res[i] = st.Result()
	}
	return got, res
}

// TestSpeculativeServingBitExact is the serving half of the speculation
// gate: with drafting on, every serving kernel, row budget, and executor
// width must emit exactly the non-speculative serial reference over the
// paged KV pool — and the speculation accounting must reconcile: the
// topick_spec_* counters against the per-request Usage totals, accepted plus
// rolled-back against drafted, and the lifecycle trace (with its new
// draft_step/verify_step events) must still validate.
func TestSpeculativeServingBitExact(t *testing.T) {
	r := train.TestModel()
	const (
		sessions = 6
		maxNew   = 24
	)
	prompts := testPrompts(r, sessions)

	for _, kc := range batchTestKernels {
		for _, mode := range specServeBudgets {
			for _, width := range []int{1, 8} {
				t.Run(kc.name+"/"+mode.name+"/width="+string(rune('0'+width)), func(t *testing.T) {
					var newKernel func() model.Kernel
					if kc.mk != nil {
						newKernel = kc.mk
					}
					tracer := obs.NewTracer(1 << 15)
					var traceBuf bytes.Buffer
					sink := obs.NewJSONLWriter(&traceBuf)
					tracer.SetSink(sink)
					srv := NewServer(r.Params, Config{
						Workers:        2,
						BlockRows:      16,
						PromptChunk:    8,
						MaxBatchTokens: mode.batch,
						SharePrefix:    true,
						HeadParallel:   width,
						Speculate:      SpeculateConfig{K: 4},
						Tracer:         tracer,
						NewKernel:      newKernel,
					})
					got, res := collectStreams(t, srv, prompts, maxNew, sample.Config{})
					met := srv.Metrics()
					srv.Close()

					var drafted, accepted int64
					for i := range prompts {
						if res[i].Reason != ReasonLength || res[i].Err != nil {
							t.Fatalf("session %d finished %q err=%v", i, res[i].Reason, res[i].Err)
						}
						u := res[i].Usage
						if u.AcceptedDraftTokens > u.DraftedTokens {
							t.Fatalf("session %d accepted %d of %d drafted", i, u.AcceptedDraftTokens, u.DraftedTokens)
						}
						drafted += int64(u.DraftedTokens)
						accepted += int64(u.AcceptedDraftTokens)
					}
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
								t.Fatalf("session %d token %d: speculative %d != serial %d", i, j, got[i][j], want[j])
							}
						}
					}

					// Counter/usage reconciliation — exact, not approximate.
					if met.SpecVerifies.Value() == 0 {
						t.Fatal("no verify passes recorded")
					}
					if got := met.SpecDrafted.Value(); got != drafted {
						t.Fatalf("spec drafted counter %d, usage total %d", got, drafted)
					}
					if got := met.SpecAccepted.Value(); got != accepted {
						t.Fatalf("spec accepted counter %d, usage total %d", got, accepted)
					}
					if d, a, rb := met.SpecDrafted.Value(), met.SpecAccepted.Value(), met.SpecRolledBack.Value(); d != a+rb {
						t.Fatalf("drafted %d != accepted %d + rolled back %d", d, a, rb)
					}
					// The synthetic corpus repeats heavily; prompt lookup must
					// actually draft here, or the test is vacuous.
					if drafted == 0 {
						t.Fatal("prompt-lookup drafting proposed nothing")
					}

					// The trace, including the appended draft_step/verify_step
					// kinds, still parses and validates.
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
					var draftEvs, verifyEvs int
					for _, ev := range events {
						switch ev.Kind {
						case obs.KindDraftStep:
							draftEvs++
						case obs.KindVerifyStep:
							verifyEvs++
						}
					}
					if draftEvs == 0 || int64(verifyEvs) != met.SpecVerifies.Value() {
						t.Fatalf("trace recorded %d draft / %d verify events, want >0 / %d",
							draftEvs, verifyEvs, met.SpecVerifies.Value())
					}
				})
			}
		}
	}
}

// TestSpeculativeServingSeededBitExact pins seeded sampling across the
// speculation boundary: per-session seeded streams from a speculating server
// must match a non-speculating server bit for bit at both row budgets
// (the acceptance rule consumes sampler RNG exactly once per emitted token).
func TestSpeculativeServingSeededBitExact(t *testing.T) {
	r := train.TestModel()
	const (
		sessions = 5
		maxNew   = 20
	)
	prompts := testPrompts(r, sessions)
	sampling := sample.Config{Temperature: 0.85, TopK: 16}

	for _, mode := range specServeBudgets {
		t.Run(mode.name, func(t *testing.T) {
			run := func(specK int) [][]int {
				srv := NewServer(r.Params, Config{
					Workers:        2,
					BlockRows:      16,
					PromptChunk:    8,
					MaxBatchTokens: mode.batch,
					Speculate:      SpeculateConfig{K: specK},
				})
				got, res := collectStreams(t, srv, prompts, maxNew, sampling)
				srv.Close()
				for i := range res {
					if res[i].Err != nil {
						t.Fatalf("session %d: %v", i, res[i].Err)
					}
				}
				return got
			}
			plain := run(0)
			spec := run(4)
			for i := range plain {
				if len(spec[i]) != len(plain[i]) {
					t.Fatalf("session %d emitted %d tokens speculating, %d plain", i, len(spec[i]), len(plain[i]))
				}
				for j := range plain[i] {
					if spec[i][j] != plain[i][j] {
						t.Fatalf("session %d token %d: speculative %d != plain %d", i, j, spec[i][j], plain[i][j])
					}
				}
			}
		})
	}
}

// TestSpeculativeStopInsideDraftWindow pins the stop-sequence boundary when
// the match lands inside an accepted draft window: a perfect draft source
// (the same model decoded greedily) accepts everything, so the verify pass
// that crosses the stop boundary has live drafts beyond it — emission must
// truncate exactly at the match, finish with ReasonStop, and never emit a
// token past the boundary at either row budget.
func TestSpeculativeStopInsideDraftWindow(t *testing.T) {
	r := train.TestModel()
	prompt := testPrompts(r, 1)[0]
	const maxNew = 16
	want := decodeSerial(t, r.Params, nil, prompt, maxNew)
	// The synthetic corpus repeats, so a pair picked from deep in the stream
	// may first match much earlier. Choose the pair whose FIRST suffix match
	// (the engine's rule) lands deepest, so several drafts are accepted
	// before the boundary and live drafts remain beyond it.
	var stopPair []int
	cut := 0
	for i := 0; i+2 <= len(want); i++ {
		pair := want[i : i+2]
		for e := 2; e <= len(want); e++ {
			if want[e-2] == pair[0] && want[e-1] == pair[1] {
				if e > cut {
					cut, stopPair = e, pair
				}
				break
			}
		}
	}
	if cut < 3 || cut > maxNew-2 {
		t.Skipf("greedy stream %v offers no mid-stream stop pair", want)
	}
	stop := [][]int{stopPair}

	for _, mode := range specServeBudgets {
		t.Run(mode.name, func(t *testing.T) {
			srv := NewServer(r.Params, Config{
				Workers:        1,
				BlockRows:      16,
				MaxBatchTokens: mode.batch,
				Speculate: SpeculateConfig{
					K: 8,
					NewDraft: func() model.DraftSource {
						return &model.DecoderDraft{Dec: model.NewDecoder(r.Params, nil)}
					},
				},
			})
			st, err := srv.Submit(context.Background(), GenerateRequest{
				Prompt: prompt, MaxTokens: maxNew, Stop: stop,
			})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			var got []int
			for ev := range st.Events() {
				got = append(got, ev.Token)
			}
			res := st.Result()
			srv.Close()

			if res.Reason != ReasonStop || res.StopSeq != 0 {
				t.Fatalf("finished %q (stop seq %d), want stop/0", res.Reason, res.StopSeq)
			}
			if len(got) != cut {
				t.Fatalf("emitted %d tokens %v, want %d (truncated at the stop match)", len(got), got, cut)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("token %d: %d != serial %d", j, got[j], want[j])
				}
			}
			if res.Usage.GeneratedTokens != cut {
				t.Fatalf("usage generated %d, want %d", res.Usage.GeneratedTokens, cut)
			}
			// The perfect draft was mid-window at the stop: the pass drafted
			// past the boundary and the surplus was rolled back, not emitted.
			if res.Usage.DraftedTokens == 0 {
				t.Fatal("perfect draft source drafted nothing")
			}
			if res.Usage.AcceptedDraftTokens >= res.Usage.DraftedTokens {
				t.Fatalf("stop inside the window must roll surplus drafts back (accepted %d of %d)",
					res.Usage.AcceptedDraftTokens, res.Usage.DraftedTokens)
			}
		})
	}
}

// TestSpeculativeLengthBoundary pins the other emission boundary: drafting
// never pushes a session past MaxTokens even when the draft window is larger
// than the remaining budget.
func TestSpeculativeLengthBoundary(t *testing.T) {
	r := train.TestModel()
	prompt := testPrompts(r, 1)[0]
	want := decodeSerial(t, r.Params, nil, prompt, 3)

	srv := NewServer(r.Params, Config{
		Workers: 1,
		Speculate: SpeculateConfig{
			K: 8,
			NewDraft: func() model.DraftSource {
				return &model.DecoderDraft{Dec: model.NewDecoder(r.Params, nil)}
			},
		},
	})
	st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: 3})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var got []int
	for ev := range st.Events() {
		got = append(got, ev.Token)
	}
	res := st.Result()
	srv.Close()
	if res.Reason != ReasonLength || len(got) != 3 {
		t.Fatalf("finished %q with %d tokens, want length/3", res.Reason, len(got))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("token %d: %d != serial %d", j, got[j], want[j])
		}
	}
}
