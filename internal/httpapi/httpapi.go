// Package httpapi is the HTTP/SSE front-end of the serving engine: an
// OpenAI-style completions endpoint over the transport-agnostic generation
// API v2 (serve.GenerateRequest / serve.Stream / serve.Result), fronting
// either one engine (New) or a replicated fleet (NewFleet).
//
// Routes:
//
//	POST /v1/completions — JSON completion request; blocking JSON response,
//	     or Server-Sent Events when "stream": true (one JSON chunk per
//	     token, a final chunk carrying finish_reason and usage, then the
//	     literal "data: [DONE]" terminator). The OpenAI "user" field names
//	     the tenant for fleet rate limiting; X-Request-ID is accepted (or
//	     generated), echoed as a response header, and threaded into the
//	     engine trace stream for cross-replica correlation.
//	GET  /v1/stats       — engine Report (session/token counters, attention
//	     transfer statistics, KV pool, prefix index, executor accounting)
//	     plus TTFT / inter-token / queue-wait latency summaries, as JSON.
//	     Fleet mode reports the router accounting, the fleet-wide rollup,
//	     and every replica's report and latency block.
//	GET  /v1/trace       — the newest lifecycle span events from the engine
//	     tracer's ring buffer (404 when tracing is disabled; tracing is
//	     per-replica and off in fleet mode).
//	GET  /v1/replicas/{id}/stats   — one replica's engine report (fleet).
//	GET  /v1/replicas/{id}/metrics — one replica's metric families (fleet).
//	GET  /healthz        — liveness probe ("ok" once the engine accepts
//	     requests); CI and load balancers poll it while the model warms up.
//	GET  /readyz         — readiness probe: 200 "ready" normally, 503
//	     "draining" after SetDraining(true) (the serve binary flips it on
//	     SIGTERM so balancers stop routing here while in-flight sessions
//	     run to completion).
//	GET  /metrics        — metric families in the Prometheus text
//	     exposition format: the engine registry, or in fleet mode the
//	     topick_fleet_* registry (per-engine families live under
//	     /v1/replicas/{id}/metrics).
//
// Every request is instrumented: per-route request counters by status
// class, per-route latency histograms, and an in-flight gauge, all on the
// fronted registry.
//
// Request validation failures map to 400 with the offending field,
// admission backpressure (serve.ErrBusy — including fleet tenant rate
// limits and fleet-wide admission) to 429 with Retry-After when known, and
// a closed engine to 503. A client disconnect cancels the session at its
// next scheduling iteration via the request context.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tokenpicker/internal/fleet"
	"tokenpicker/internal/sample"
	"tokenpicker/internal/serve"
)

// Options configures the front-end.
type Options struct {
	// Model is the model name echoed in responses (default "topick").
	Model string
	// Detok decodes one token id for the "text" fields; nil leaves them
	// empty and responses carry token ids only. (The engine-side
	// serve.Config.Detokenize hook feeds streamed events the same way; set
	// both to the same function for consistent output.)
	Detok func(token int) string
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
}

// Handler serves the HTTP API over one engine (New) or a fleet (NewFleet).
type Handler struct {
	engine   *serve.Server // single-engine mode; nil when fronting a fleet
	fleet    *fleet.Fleet  // fleet mode; nil when fronting one engine
	opts     Options
	mux      *http.ServeMux
	start    time.Time
	nextID   atomic.Int64
	draining atomic.Bool
	hm       *httpMetrics
}

// New builds the front-end handler over a running engine.
func New(engine *serve.Server, opts Options) *Handler {
	h := newHandler(opts)
	h.engine = engine
	h.hm = newHTTPMetrics(engine.Metrics().Registry)
	h.routes()
	return h
}

// NewFleet builds the front-end over a replicated fleet. The HTTP families
// and /metrics live on the fleet registry (topick_fleet_* plus topick_http_*);
// each replica's full engine registry is exposed at
// /v1/replicas/{id}/metrics, and /v1/stats aggregates every replica.
func NewFleet(fl *fleet.Fleet, opts Options) *Handler {
	h := newHandler(opts)
	h.fleet = fl
	h.hm = newHTTPMetrics(fl.Metrics().Registry)
	h.routes()
	h.mux.HandleFunc("GET /v1/replicas/{id}/stats", h.replicaStats)
	h.mux.HandleFunc("GET /v1/replicas/{id}/metrics", h.replicaMetrics)
	return h
}

func newHandler(opts Options) *Handler {
	if opts.Model == "" {
		opts.Model = "topick"
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	return &Handler{opts: opts, mux: http.NewServeMux(), start: time.Now()}
}

func (h *Handler) routes() {
	h.mux.HandleFunc("POST /v1/completions", h.completions)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.HandleFunc("GET /v1/trace", h.traceTail)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("GET /readyz", h.readyz)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// ServeHTTP implements http.Handler, wrapping every route in the metrics
// middleware: in-flight gauge, per-route latency histogram, and status-class
// counters.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rm := h.hm.route(r.URL.Path)
	h.hm.inFlight.Add(1)
	start := time.Now()
	ww, sw := wrapWriter(w)
	h.mux.ServeHTTP(ww, r)
	h.hm.inFlight.Add(-1)
	rm.lat.Observe(time.Since(start).Seconds())
	rm.count(sw.status)
}

// completionRequest is the POST /v1/completions body. Prompt and stop
// sequences are token ids — the bundled model speaks the synthetic-corpus
// vocabulary, which has no canonical text encoding. Unknown fields are
// ignored (stock OpenAI SDKs send "n", "stream_options", "user", ...).
type completionRequest struct {
	// Model is accepted for OpenAI-client compatibility; the engine serves
	// exactly one model, so it is echoed back rather than dispatched on.
	Model             string             `json:"model"`
	Prompt            []int              `json:"prompt"`
	MaxTokens         int                `json:"max_tokens"`
	Temperature       float64            `json:"temperature"`
	TopK              int                `json:"top_k"`
	TopP              float64            `json:"top_p"`
	MinP              float64            `json:"min_p"`
	RepetitionPenalty float64            `json:"repetition_penalty"`
	Seed              int64              `json:"seed"`
	Stop              [][]int            `json:"stop"`
	LogitBias         map[string]float32 `json:"logit_bias"`
	Stream            bool               `json:"stream"`
	// User is the OpenAI end-user identifier; fleet mode buckets per-tenant
	// rate limits by it (empty = the anonymous bucket). Single-engine mode
	// accepts and ignores it.
	User string `json:"user"`
}

// completionResponse is both the blocking response and the SSE chunk shape.
type completionResponse struct {
	ID      string   `json:"id"`
	Object  string   `json:"object"`
	Created int64    `json:"created"`
	Model   string   `json:"model"`
	Choices []choice `json:"choices"`
	Usage   *usage   `json:"usage,omitempty"`
	// Error carries the terminal engine error on the final SSE chunk of a
	// failed stream (the HTTP status was already committed as 200), and
	// RequestID echoes the request's correlation id alongside it so a
	// mid-stream failure can be chased through the trace stream even by
	// clients that dropped the X-Request-ID response header.
	Error     string `json:"error,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

type choice struct {
	Index        int    `json:"index"`
	Tokens       []int  `json:"tokens"`
	Text         string `json:"text"`
	FinishReason string `json:"finish_reason,omitempty"`
	// StopSeq identifies which "stop" sequence matched when finish_reason
	// is "stop".
	StopSeq *int `json:"stop_seq,omitempty"`
}

type usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
	PrefixHitRows    int `json:"prefix_hit_rows"`
	RecomputeTokens  int `json:"recompute_tokens"`
	// Speculative-decoding accounting: drafted tokens submitted for
	// verification on this request's behalf and how many were accepted.
	// Both zero when the server runs without -speculate-k.
	DraftedTokens       int `json:"drafted_tokens"`
	AcceptedDraftTokens int `json:"accepted_draft_tokens"`
}

type apiError struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
		Field   string `json:"field,omitempty"`
	} `json:"error"`
}

func (h *Handler) writeError(w http.ResponseWriter, status int, typ, field, msg string) {
	var e apiError
	e.Error.Message = msg
	e.Error.Type = typ
	e.Error.Field = field
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(e)
}

// submitError maps an engine admission failure to a transport status.
// Fleet rejections need no cases of their own: tenant rate limits and
// fleet-wide saturation match serve.ErrBusy, a closed fleet matches
// serve.ErrServerClosed.
func (h *Handler) submitError(w http.ResponseWriter, err error) {
	var ve *serve.ValidationError
	var rle *fleet.RateLimitError
	switch {
	case errors.As(err, &ve):
		h.writeError(w, http.StatusBadRequest, "invalid_request_error", ve.Field, ve.Error())
	case errors.Is(err, serve.ErrInvalidRequest) || errors.Is(err, sample.ErrInvalidConfig):
		h.writeError(w, http.StatusBadRequest, "invalid_request_error", "", err.Error())
	case errors.Is(err, serve.ErrBusy):
		if errors.As(err, &rle) && rle.RetryAfter > 0 {
			// Ceil to whole seconds: Retry-After is integral, and rounding
			// down would invite a retry that is rate-limited again.
			w.Header().Set("Retry-After", strconv.FormatInt(int64((rle.RetryAfter+time.Second-1)/time.Second), 10))
		}
		h.writeError(w, http.StatusTooManyRequests, "rate_limit_error", "", err.Error())
	case errors.Is(err, serve.ErrServerClosed):
		h.writeError(w, http.StatusServiceUnavailable, "server_error", "", err.Error())
	default:
		h.writeError(w, http.StatusInternalServerError, "server_error", "", err.Error())
	}
}

// toGenerateRequest lowers the wire request onto the engine contract.
func (cr *completionRequest) toGenerateRequest() (serve.GenerateRequest, error) {
	req := serve.GenerateRequest{
		Prompt:    cr.Prompt,
		MaxTokens: cr.MaxTokens,
		Stop:      cr.Stop,
		Sampling: sample.Config{
			Temperature:       cr.Temperature,
			TopK:              cr.TopK,
			TopP:              cr.TopP,
			MinP:              cr.MinP,
			RepetitionPenalty: cr.RepetitionPenalty,
			Seed:              cr.Seed,
		},
	}
	if len(cr.LogitBias) > 0 {
		req.Sampling.LogitBias = make(map[int]float32, len(cr.LogitBias))
		for k, v := range cr.LogitBias {
			tok, err := strconv.Atoi(k)
			if err != nil {
				return req, fmt.Errorf("logit_bias key %q is not a token id", k)
			}
			req.Sampling.LogitBias[tok] = v
		}
	}
	return req, nil
}

func (h *Handler) completions(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	var cr completionRequest
	if err := dec.Decode(&cr); err != nil {
		h.writeError(w, http.StatusBadRequest, "invalid_request_error", "", "malformed JSON body: "+err.Error())
		return
	}
	req, err := cr.toGenerateRequest()
	if err != nil {
		h.writeError(w, http.StatusBadRequest, "invalid_request_error", "logit_bias", err.Error())
		return
	}
	// Correlation id: the client's X-Request-ID, or a generated one. It is
	// echoed as a response header on every outcome — including submit
	// rejections — and its hash rides the session's trace events, so one
	// request can be followed across fleet replicas.
	rid := h.requestID(r)
	req.RequestID = rid
	w.Header().Set("X-Request-ID", rid)
	// The request context carries the client connection: a disconnect
	// cancels the session engine-side at its next scheduling iteration.
	st, err := h.submit(r.Context(), req, cr.User)
	if err != nil {
		h.submitError(w, err)
		return
	}
	id := fmt.Sprintf("cmpl-%d-%d", h.start.UnixNano(), h.nextID.Add(1))
	if cr.Stream {
		h.streamCompletion(w, st, id, rid)
		return
	}

	var toks []int
	var text strings.Builder
	for ev := range st.Events() {
		toks = append(toks, ev.Token)
		h.appendText(&text, ev)
	}
	res := st.Result()
	if res.Reason == serve.ReasonRejected {
		// Admission succeeded but the engine could not finish the session
		// (KV pool exhausted beyond reclamation): a capacity failure, not a
		// completion — clients must see a 5xx, not an empty 200.
		msg := "engine rejected the session mid-flight"
		if res.Err != nil {
			msg = res.Err.Error()
		}
		h.writeError(w, http.StatusServiceUnavailable, "server_error", "", msg)
		return
	}
	resp := h.response(id, res)
	resp.Choices = []choice{h.choice(toks, text.String(), &res)}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// maxRequestIDLen bounds an accepted X-Request-ID; longer values are
// truncated rather than rejected, keeping the id usable for correlation
// without letting a client grow trace events without bound.
const maxRequestIDLen = 128

// requestID returns the client's X-Request-ID, truncated to
// maxRequestIDLen, or generates one.
func (h *Handler) requestID(r *http.Request) string {
	if rid := r.Header.Get("X-Request-ID"); rid != "" {
		if len(rid) > maxRequestIDLen {
			rid = rid[:maxRequestIDLen]
		}
		return rid
	}
	return fmt.Sprintf("req-%d-%d", h.start.UnixNano(), h.nextID.Add(1))
}

// submit dispatches to the fronted engine or fleet.
func (h *Handler) submit(ctx context.Context, req serve.GenerateRequest, tenant string) (*serve.Stream, error) {
	if h.fleet != nil {
		return h.fleet.Submit(ctx, fleet.Request{GenerateRequest: req, Tenant: tenant})
	}
	return h.engine.Submit(ctx, req)
}

// streamCompletion writes the SSE variant: one chunk per event, a final
// chunk with the finish reason and usage, then the [DONE] terminator.
func (h *Handler) streamCompletion(w http.ResponseWriter, st *serve.Stream, id, rid string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		st.Cancel()
		st.Result() // drain so the session's terminal state is settled
		h.writeError(w, http.StatusInternalServerError, "server_error", "", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	enc := json.NewEncoder(w)
	writeChunk := func(resp completionResponse) {
		fmt.Fprint(w, "data: ")
		enc.Encode(resp) // Encode terminates the line
		fmt.Fprint(w, "\n")
		flusher.Flush()
	}
	for ev := range st.Events() {
		resp := h.response(id, serve.Result{})
		resp.Usage = nil
		var text strings.Builder
		h.appendText(&text, ev)
		resp.Choices = []choice{{Index: 0, Tokens: []int{ev.Token}, Text: text.String()}}
		writeChunk(resp)
	}
	res := st.Result()
	final := h.response(id, res)
	final.Choices = []choice{h.choice([]int{}, "", &res)}
	if res.Err != nil {
		// The 200 header is long gone on a stream; the terminal engine
		// error (pool rejection, cancellation cause) rides the final chunk
		// so SSE clients can distinguish failure from a clean finish.
		final.Error = res.Err.Error()
		final.RequestID = rid
	}
	writeChunk(final)
	fmt.Fprint(w, "data: [DONE]\n\n")
	flusher.Flush()
}

// appendText decodes ev into b: the engine-side event text when present,
// else the handler's Detok hook.
func (h *Handler) appendText(b *strings.Builder, ev serve.Event) {
	switch {
	case ev.Text != "":
		b.WriteString(ev.Text)
	case h.opts.Detok != nil:
		b.WriteString(h.opts.Detok(ev.Token))
	}
}

func (h *Handler) response(id string, res serve.Result) completionResponse {
	return completionResponse{
		ID:      id,
		Object:  "text_completion",
		Created: time.Now().Unix(),
		Model:   h.opts.Model,
		Usage: &usage{
			PromptTokens:        res.Usage.PromptTokens,
			CompletionTokens:    res.Usage.GeneratedTokens,
			TotalTokens:         res.Usage.TotalTokens(),
			PrefixHitRows:       res.Usage.PrefixHitRows,
			RecomputeTokens:     res.Usage.RecomputeTokens,
			DraftedTokens:       res.Usage.DraftedTokens,
			AcceptedDraftTokens: res.Usage.AcceptedDraftTokens,
		},
	}
}

func (h *Handler) choice(toks []int, text string, res *serve.Result) choice {
	c := choice{Index: 0, Tokens: toks, Text: text, FinishReason: string(res.Reason)}
	if res.Reason == serve.ReasonStop {
		seq := res.StopSeq
		c.StopSeq = &seq
	}
	return c
}

// statsResponse is the GET /v1/stats body.
type statsResponse struct {
	Model         string       `json:"model"`
	APIVersion    int          `json:"api_version"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Report        serve.Report `json:"report"`
	// Latency digests TTFT, inter-token, and queue-wait from the engine's
	// metric histograms: count, mean, and interpolated p50/p95/p99.
	Latency latencyBlock `json:"latency"`
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	if h.fleet != nil {
		h.fleetStats(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statsResponse{
		Model:         h.opts.Model,
		APIVersion:    serve.APIVersion,
		UptimeSeconds: time.Since(h.start).Seconds(),
		Report:        h.engine.Report(),
		Latency:       latencyOf(h.engine.Metrics()),
	})
}

// replicaBlock is one replica's member of the fleet /v1/stats body: its full
// engine report plus its own latency digests.
type replicaBlock struct {
	Report  serve.Report `json:"report"`
	Latency latencyBlock `json:"latency"`
}

// fleetStatsResponse is the GET /v1/stats body in fleet mode. The "report"
// member keeps the single-engine shape — the rollup across replicas — so
// dashboards built against one engine keep reading; the router accounting
// and the per-replica breakdown ride alongside.
type fleetStatsResponse struct {
	Model         string             `json:"model"`
	APIVersion    int                `json:"api_version"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	Replicas      int                `json:"replicas"`
	Routing       fleet.RoutingStats `json:"routing"`
	Report        serve.Report       `json:"report"`
	ReplicaStats  []replicaBlock     `json:"replica_stats"`
}

func (h *Handler) fleetStats(w http.ResponseWriter) {
	rep := h.fleet.Report()
	resp := fleetStatsResponse{
		Model:         h.opts.Model,
		APIVersion:    serve.APIVersion,
		UptimeSeconds: time.Since(h.start).Seconds(),
		Replicas:      h.fleet.Replicas(),
		Routing:       rep.Routing,
		Report:        rep.Rollup(),
		ReplicaStats:  make([]replicaBlock, len(rep.Replicas)),
	}
	for i := range rep.Replicas {
		resp.ReplicaStats[i] = replicaBlock{
			Report:  rep.Replicas[i],
			Latency: latencyOf(h.fleet.Replica(i).Metrics()),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// replica resolves the {id} path segment of a /v1/replicas route; on a bad
// id it writes the 404 and returns false.
func (h *Handler) replica(w http.ResponseWriter, r *http.Request) (*serve.Server, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= h.fleet.Replicas() {
		h.writeError(w, http.StatusNotFound, "invalid_request_error", "id",
			fmt.Sprintf("replica id must be an integer in [0,%d)", h.fleet.Replicas()))
		return nil, false
	}
	return h.fleet.Replica(id), true
}

func (h *Handler) replicaStats(w http.ResponseWriter, r *http.Request) {
	rep, ok := h.replica(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statsResponse{
		Model:         h.opts.Model,
		APIVersion:    serve.APIVersion,
		UptimeSeconds: time.Since(h.start).Seconds(),
		Report:        rep.Report(),
		Latency:       latencyOf(rep.Metrics()),
	})
}

func (h *Handler) replicaMetrics(w http.ResponseWriter, r *http.Request) {
	rep, ok := h.replica(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rep.Metrics().Registry.WritePrometheus(w)
}
