// Package tokenpicker is a from-scratch Go reproduction of "Token-Picker:
// Accelerating Attention in Text Generation with Minimized Memory Transfer
// via Probability Estimation" (Park et al., DAC 2024).
//
// The package re-exports the names the CLIs (cmd/) and runnable examples
// (examples/) use; everything else stays in the internal packages, and
// TestPublicSurfaceReferenced keeps it that way. Through it:
//
//   - the paper's probability-estimation pruning as an attention Kernel
//     plugged into the bundled transformer, next to 12-bit exact attention;
//   - the transformer substrate (decoder, speculative decoding, a trained
//     demo model) that stands in for the paper's pretrained-model
//     evaluation;
//   - the ToPick cycle-level accelerator simulator in its baseline,
//     estimation-only and ToPick modes;
//   - a continuous-batching serving engine that time-slices many concurrent
//     generation sessions across a worker pool, pages their KV caches
//     through a shared ref-counted block pool with prompt-prefix sharing
//     and preemptive scheduling under memory pressure, and aggregates
//     pruning statistics fleet-wide — the multi-tenant regime the paper's
//     memory-bound analysis targets — plus its HTTP front-end, a replica
//     fleet, and a lifecycle tracer.
//
// Quick start:
//
//	res := tokenpicker.TrainDemoModel()
//	kernel := tokenpicker.NewKernel(1e-3) // prune tokens with p'' <= 0.1%
//	dec := tokenpicker.NewDecoder(res.Params, kernel)
//	dec.Prompt(res.Held[:64])
//	logits, err := dec.Step(res.Held[64])
//	_, _ = logits, err // err is ErrContextFull once the window is spent
//	stats := kernel.Stats()
//	fmt.Printf("V pruning ratio: %.1fx\n", stats.PruningRatio())
//
// Serving (generation API v2 — typed requests, pluggable sampling, event
// streams):
//
//	srv := tokenpicker.NewServer(res.Params, tokenpicker.ServeConfig{
//		Workers:   4,
//		NewKernel: func() tokenpicker.Kernel { return tokenpicker.NewKernel(1e-3) },
//	})
//	st, _ := srv.Submit(ctx, tokenpicker.GenerateRequest{
//		Prompt:   res.Held[:64],
//		Sampling: tokenpicker.SamplingConfig{Temperature: 0.8, TopK: 40, Seed: 7},
//	})
//	for ev := range st.Events() {
//		fmt.Println(ev.Index, ev.Token, ev.Elapsed)
//	}
//	res2 := st.Result()
//	fmt.Println(res2.Reason, res2.Usage.GeneratedTokens)
//	srv.Close()
//	rep := srv.Report()
//	fmt.Printf("fleet pruning: %.1fx\n", rep.Attn.PruningRatio())
//
// NewHTTPHandler wraps a Server in the OpenAI-style HTTP front-end
// (POST /v1/completions with optional SSE streaming, GET /v1/stats);
// `topick-serve -listen :8080` serves it from the CLI.
package tokenpicker

import (
	"io"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/fleet"
	"tokenpicker/internal/httpapi"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/sample"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/sim/arch"
	"tokenpicker/internal/train"
)

// Model, kernel and decoding types.
type (
	// TrainResult couples trained weights with their corpus splits.
	TrainResult = train.Result
	// Decoder runs KV-cached generation with a pluggable attention kernel.
	Decoder = model.Decoder
	// Kernel is the attention plug-in interface: one layer per call
	// (AttendLayer over an AttendBatch), heads scheduled on the batch's
	// executor.
	Kernel = model.Kernel
	// TokenPickerKernel applies the paper's pruning inside the decoder and
	// accounts the off-chip traffic it would generate (Stats).
	TokenPickerKernel = attention.TokenPicker
	// NgramDraft is the model-free prompt-lookup draft source (default).
	NgramDraft = model.NgramDraft
	// SamplingConfig is the pluggable sampling configuration (temperature,
	// top-k, top-p, min-p, repetition penalty, logit bias, seed); the zero
	// value is greedy argmax.
	SamplingConfig = sample.Config
	// SamplerChain applies penalties → top-k → top-p → min-p → temperature
	// → seeded multinomial, deterministically and allocation-free.
	SamplerChain = sample.Chain
)

// TrainDemoModel trains (once per process) a small language model on the
// synthetic corpus, suitable for examples and quick experiments.
func TrainDemoModel() *TrainResult { return train.TestModel() }

// NewKernel returns the Token-Picker attention kernel at the given
// threshold, ready to plug into a Decoder.
func NewKernel(threshold float64) *TokenPickerKernel {
	return attention.NewTokenPicker(threshold)
}

// NewExactKernel returns 12-bit full-softmax attention (the non-pruning
// baseline's arithmetic).
func NewExactKernel() Kernel { return attention.NewQuantizedExact() }

// NewDecoder wraps model.NewDecoder.
func NewDecoder(p *model.Params, k Kernel) *Decoder { return model.NewDecoder(p, k) }

// Perplexity evaluates teacher-forced perplexity with the given kernel
// (nil = exact attention); warm tokens are consumed as prompt.
func Perplexity(p *model.Params, tokens []int, k Kernel, warm int) float64 {
	return train.Perplexity(p, tokens, k, warm)
}

// NewBatchEngine builds a batch engine over shared params; a speculative
// decoder's Step drives it for standalone speculative generation.
func NewBatchEngine(p *model.Params) *model.BatchEngine { return model.NewBatchEngine(p) }

// NewSpecDecoder builds a speculative decoder over dec with draft window
// maxK: draft may be nil (every pass degenerates to a plain decode step),
// the prompt-lookup NgramDraft, or any deterministic draft source. Emitted
// tokens are bit-identical to plain decoding for any deterministic sampler
// fed the same logits.
func NewSpecDecoder(dec *Decoder, draft model.DraftSource, maxK int) *model.SpecDecoder {
	return model.NewSpecDecoder(dec, draft, maxK)
}

// NewSampler builds the composable sampler chain for a validated sampling
// configuration — the same chain the serving engine runs per session; use
// it directly with a Decoder for single-tenant generation.
func NewSampler(cfg SamplingConfig) (*SamplerChain, error) { return sample.New(cfg) }

// ErrContextFull is returned by Decoder.Step/Prompt when the context window
// is exhausted; the serving engine finishes such sessions gracefully.
var ErrContextFull = model.ErrContextFull

// Serving engine types (generation API v2).
type (
	// Server is the continuous-batching inference engine.
	Server = serve.Server
	// ServeConfig sizes a Server (workers, pool geometry, speculation).
	ServeConfig = serve.Config
	// GenerateRequest is one generation job: prompt, token budget, full
	// sampling configuration, stop sequences. Validate reports typed
	// validation errors that match ErrInvalidRequest.
	GenerateRequest = serve.GenerateRequest
	// ServeStream delivers a session's events and terminal result, with
	// consumer-side cancellation.
	ServeStream = serve.Stream
	// ServeResult is a session's terminal state: structured finish reason
	// (including stop-sequence matches) and per-request usage.
	ServeResult = serve.Result
)

// FinishStop is the finish reason of a session that matched a stop
// sequence.
const FinishStop = serve.ReasonStop

// Serving API sentinels: ErrInvalidRequest matches every request
// validation failure (errors.Is), ErrStreamDone ends a ServeStream.Next
// pull loop, ErrInvalidSampling matches every sampling-config failure.
// ErrBusy matches every admission backpressure rejection — engine
// saturation, fleet-wide admission, and tenant rate limits — and
// ErrServerClosed every submit after Close.
var (
	ErrInvalidRequest  = serve.ErrInvalidRequest
	ErrInvalidSampling = sample.ErrInvalidConfig
	ErrStreamDone      = serve.ErrStreamDone
	ErrBusy            = serve.ErrBusy
	ErrServerClosed    = serve.ErrServerClosed
)

// NewServer starts the continuous-batching engine over trained params.
// Close it to drain in-flight sessions and stop the workers.
func NewServer(p *model.Params, cfg ServeConfig) *Server { return serve.NewServer(p, cfg) }

// HTTPOptions configures the HTTP front-end (model name, token decoding).
type HTTPOptions = httpapi.Options

// HTTPHandler is the OpenAI-style HTTP front-end; it implements
// http.Handler. SetDraining(true) flips GET /readyz to 503 for
// load-balancer drain during graceful shutdown.
type HTTPHandler = httpapi.Handler

// NewHTTPHandler wraps a Server in the OpenAI-style HTTP API:
// POST /v1/completions (JSON; SSE streaming with a [DONE] terminator when
// "stream" is true), GET /v1/stats (engine/pool/prefix statistics and
// latency summaries), GET /v1/trace (lifecycle span tail), GET /metrics
// (Prometheus text format), GET /healthz (liveness), and GET /readyz
// (readiness/draining). Serve it with net/http.
func NewHTTPHandler(srv *Server, opts HTTPOptions) *HTTPHandler {
	return httpapi.New(srv, opts)
}

// Fleet serving types (engine replication with prefix-affinity routing).
type (
	// Fleet fronts N independent Server replicas with prefix-affinity
	// rendezvous routing, per-tenant token-rate limits, and fleet-wide
	// admission control; token streams stay bit-identical to a single
	// engine.
	Fleet = fleet.Fleet
	// FleetConfig sizes a Fleet: replica count, affinity routing, spill
	// margin, tenant rate limits, and the per-replica engine template.
	FleetConfig = fleet.Config
)

// NewFleet builds and starts a replica fleet over shared read-only params.
// The config must be valid (FleetConfig.Validate); NewFleet panics
// otherwise.
func NewFleet(p *model.Params, cfg FleetConfig) *Fleet { return fleet.NewFleet(p, cfg) }

// NewFleetHTTPHandler wraps a Fleet in the same OpenAI-style HTTP API as
// NewHTTPHandler, plus the fleet surface: aggregated per-replica
// GET /v1/stats, GET /v1/replicas/{id}/stats and /metrics, tenant rate
// limiting keyed by the request's "user" field, and X-Request-ID
// correlation across replicas.
func NewFleetHTTPHandler(fl *Fleet, opts HTTPOptions) *HTTPHandler {
	return httpapi.NewFleet(fl, opts)
}

// Lifecycle tracing.
type (
	// Tracer records per-session lifecycle span events into a ring buffer
	// (ServeConfig.Tracer), optionally teeing them to a JSONL sink.
	Tracer = obs.Tracer
	// TraceJSONLWriter streams trace events as JSON lines, allocation-free.
	TraceJSONLWriter = obs.JSONLWriter
)

// NewTracer builds a lifecycle tracer with the given ring capacity; assign
// it to ServeConfig.Tracer before NewServer.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewTraceJSONLWriter builds a JSONL trace sink over w (schema header
// included); install with Tracer.SetSink and Flush before reading the file.
func NewTraceJSONLWriter(w io.Writer) *TraceJSONLWriter { return obs.NewJSONLWriter(w) }

// AccelSim is the event-driven, cycle-level ToPick/baseline accelerator
// simulator.
type AccelSim = arch.Sim

// Accelerator modes (paper Fig. 10 configurations plus the in-order
// ablation).
const (
	ModeBaseline      = arch.ModeBaseline
	ModeProbEst       = arch.ModeProbEst
	ModeToPick        = arch.ModeToPick
	ModeToPickInOrder = arch.ModeToPickInOrder
)

// NewAccelSim builds the cycle-level simulator in the given mode and
// pruning threshold with the paper's hardware configuration (Table 1).
func NewAccelSim(mode arch.Mode, threshold float64) *AccelSim {
	return arch.MustNew(arch.DefaultConfig(mode, threshold))
}
