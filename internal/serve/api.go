package serve

// Generation API v2: the transport-agnostic request/response contract of
// the serving engine. A GenerateRequest carries the full sampling
// configuration and stop conditions and is validated with typed errors; a
// Stream delivers per-token Events (id, optional decoded text, index,
// timing) with consumer-side cancellation; a Result carries a structured
// finish reason and per-request Usage accounting. The HTTP front-end
// (internal/httpapi) and the Go API are both thin shells over these types.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tokenpicker/internal/sample"
)

// APIVersion identifies the generation request/response contract this
// package implements; it only moves on incompatible redesigns. Version 3
// added the observability surface: latency summaries on /v1/stats, the
// /metrics, /readyz, and /v1/trace endpoints, and the Report.Exec field.
// Version 4 added fleet serving: the aggregated per-replica /v1/stats shape,
// the /v1/replicas/{id}/... endpoints, X-Request-ID echo, and the "rid"
// trace field (trace schema 2).
const APIVersion = 4

// ErrInvalidRequest is the sentinel every *ValidationError matches with
// errors.Is; transports map it to a 400-class failure.
var ErrInvalidRequest = errors.New("serve: invalid request")

// ErrStreamDone is returned by Stream.Next once the session has finished
// and every event has been consumed; read Stream.Result for the terminal
// state.
var ErrStreamDone = errors.New("serve: stream done")

// ValidationError is the typed rejection of one GenerateRequest field. It
// matches ErrInvalidRequest with errors.Is, and unwraps to a finer-grained
// sentinel when one applies (ErrEmptyPrompt, ErrBadToken, or the
// *sample.ConfigError describing the offending sampling field).
type ValidationError struct {
	Field  string // offending field, e.g. "prompt", "sampling.seed"
	Reason string // human-readable violation
	err    error  // optional wrapped sentinel
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("serve: invalid request: %s: %s", e.Field, e.Reason)
}

// Is reports ErrInvalidRequest so transports can classify without losing
// the field detail.
func (e *ValidationError) Is(target error) bool { return target == ErrInvalidRequest }

// Unwrap exposes the finer-grained sentinel, when there is one.
func (e *ValidationError) Unwrap() error { return e.err }

// GenerateRequest is one generation job: the v2 request type. The zero
// values of every optional field are usable — greedy sampling, the server's
// default token budget, no stop sequences.
type GenerateRequest struct {
	// Prompt is the token-id prompt; it must be non-empty and in-vocab.
	Prompt []int
	// MaxTokens bounds the generated tokens (0 = Config.DefaultMaxNew).
	MaxTokens int
	// Sampling is the full sampling configuration: temperature, top-k,
	// top-p, min-p, repetition penalty, logit bias, seed. The zero value is
	// greedy argmax.
	Sampling sample.Config
	// Stop lists token sequences that end generation: as soon as the
	// generated tail equals one of them, the session finishes ReasonStop
	// with the match recorded in Result. Matched tokens have already been
	// emitted when the match completes (token streams cannot retract), so
	// consumers that want them hidden drop Result.StopTokens from the tail.
	Stop [][]int
	// RequestID is an optional caller-supplied correlation id. Its FNV hash
	// rides every trace event of the session (obs.Event.ReqID), so one
	// request can be followed across replicas in a fleet; it never affects
	// generation.
	RequestID string
}

// Validate checks the vocabulary-independent request invariants and
// returns a *ValidationError for the first violation. The server re-runs
// it at Submit and adds the vocabulary-dependent checks (prompt, stop, and
// logit-bias token ids must be in-vocab).
func (r *GenerateRequest) Validate() error {
	if len(r.Prompt) == 0 {
		return &ValidationError{Field: "prompt", Reason: "needs at least one token", err: ErrEmptyPrompt}
	}
	if r.MaxTokens < 0 {
		return &ValidationError{Field: "max_tokens", Reason: fmt.Sprintf("must be >= 0, got %d", r.MaxTokens)}
	}
	if err := r.Sampling.Validate(); err != nil {
		field, reason := "sampling", err.Error()
		var ce *sample.ConfigError
		if errors.As(err, &ce) {
			field, reason = "sampling."+ce.Field, ce.Reason
		}
		return &ValidationError{Field: field, Reason: reason, err: err}
	}
	for i, seq := range r.Stop {
		if len(seq) == 0 {
			return &ValidationError{Field: "stop", Reason: fmt.Sprintf("stop sequence %d is empty", i)}
		}
	}
	return nil
}

// validateVocab rejects token ids outside [0, vocab) anywhere in the
// request — the decoder panics on them, and a silently out-of-range stop
// sequence or bias key could never take effect.
func (r *GenerateRequest) validateVocab(vocab int) error {
	for i, t := range r.Prompt {
		if t < 0 || t >= vocab {
			return &ValidationError{
				Field:  "prompt",
				Reason: fmt.Sprintf("token %d at position %d out of vocabulary (size %d)", t, i, vocab),
				err:    ErrBadToken,
			}
		}
	}
	for i, seq := range r.Stop {
		for j, t := range seq {
			if t < 0 || t >= vocab {
				return &ValidationError{
					Field:  "stop",
					Reason: fmt.Sprintf("sequence %d token %d at position %d out of vocabulary (size %d)", i, t, j, vocab),
					err:    ErrBadToken,
				}
			}
		}
	}
	for t := range r.Sampling.LogitBias {
		if t < 0 || t >= vocab {
			return &ValidationError{
				Field:  "sampling.logit_bias",
				Reason: fmt.Sprintf("token %d out of vocabulary (size %d)", t, vocab),
				err:    ErrBadToken,
			}
		}
	}
	return nil
}

// Usage is the per-request token accounting of one finished (or still
// running) session.
type Usage struct {
	// PromptTokens is how many prompt tokens the session consumed —
	// normally len(Prompt), less when the context window filled mid-prompt.
	PromptTokens int
	// GeneratedTokens is how many tokens the session emitted.
	GeneratedTokens int
	// PrefixHitRows counts KV rows adopted from the prefix-sharing index
	// instead of prefilled (cumulative across preemption rebuilds).
	PrefixHitRows int
	// RecomputeTokens counts generated tokens re-consumed during preemption
	// replay: work redone, nothing re-emitted.
	RecomputeTokens int
	// DraftedTokens counts draft tokens submitted for speculative
	// verification on this session's behalf (0 unless Config.Speculate.K
	// > 0). AcceptedDraftTokens of them were reproduced by the session's
	// sampler and kept; the rest were rolled back. Speculation changes
	// neither GeneratedTokens nor the emitted stream — only how many engine
	// passes produced it.
	DraftedTokens int
	// AcceptedDraftTokens counts drafted tokens that were accepted.
	AcceptedDraftTokens int
}

// TotalTokens sums prompt and generated tokens, the usual billing figure.
func (u Usage) TotalTokens() int { return u.PromptTokens + u.GeneratedTokens }

// Event is one unit of stream output: a generated token plus its metadata.
type Event struct {
	// Token is the generated token id.
	Token int
	// Index is the token's 0-based position in the generated sequence.
	Index int
	// Text is the decoded form when the server has a Config.Detokenize
	// hook; empty otherwise (the synthetic-corpus vocabulary has no
	// inherent text form).
	Text string
	// Elapsed is the time from Submit to this token's emission, measured
	// engine-side (Elapsed of Index 0 is the TTFT).
	Elapsed time.Duration
}

// Stream delivers a session's output as an event stream. Events are
// buffered for the whole response, so a slow — or departed — consumer
// never blocks a decode worker.
type Stream struct {
	events chan Event
	done   chan struct{}
	cancel context.CancelFunc
	res    Result
}

// Events exposes the channel view: it yields every event in order and is
// closed when the session finishes. Use Next for the pull view.
func (s *Stream) Events() <-chan Event { return s.events }

// Next blocks for the next event. It returns ErrStreamDone once the
// session has finished and the stream is drained, or ctx's error if ctx
// ends first (the session itself keeps running; use Cancel to stop it).
func (s *Stream) Next(ctx context.Context) (Event, error) {
	// Prefer a ready event over a concurrently canceled ctx so consumers
	// drain deterministically.
	select {
	case ev, ok := <-s.events:
		if !ok {
			return Event{}, ErrStreamDone
		}
		return ev, nil
	default:
	}
	select {
	case ev, ok := <-s.events:
		if !ok {
			return Event{}, ErrStreamDone
		}
		return ev, nil
	case <-ctx.Done():
		return Event{}, ctx.Err()
	}
}

// Cancel detaches the consumer: the session is canceled at its next
// scheduling iteration and finishes ReasonCanceled, releasing its KV blocks
// — nothing leaks even if the consumer never reads another event (the
// stream buffer holds the whole response). Idempotent, and a no-op once
// the session finished.
func (s *Stream) Cancel() { s.cancel() }

// Result blocks until the session finishes and returns its terminal state.
func (s *Stream) Result() Result {
	<-s.done
	return s.res
}

// matchStop reports which stop sequence the generated history now ends
// with: its index and the sequence, or (-1, nil).
func matchStop(stop [][]int, hist []int) (int, []int) {
	for i, seq := range stop {
		if len(hist) < len(seq) {
			continue
		}
		tail := hist[len(hist)-len(seq):]
		ok := true
		for j, want := range seq {
			if tail[j] != want {
				ok = false
				break
			}
		}
		if ok {
			return i, seq
		}
	}
	return -1, nil
}
