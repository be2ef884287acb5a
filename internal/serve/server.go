// Package serve is a continuous-batching inference engine over the
// Token-Picker decoder. Generation requests are admitted into a run queue
// and advanced at token granularity, so a new request starts decoding
// immediately instead of waiting for the batch in flight to drain.
//
// One scheduling loop drives everything. Each of Config.Workers runner
// goroutines owns an attention kernel, a head executor and a
// model.BatchEngine, and repeats: pop the front session of the FIFO run
// queue, advance it by one engine step — a decode, replay or
// speculative-verify step, or its next PromptChunk prompt rows — then
// sample, emit, and requeue. Generated tokens are bit-identical for every
// worker count.
//
// Every session owns a decoder whose KV caches are leased block-by-block
// from a shared Pool and recycled on completion. Per-session transfer
// statistics are aggregated fleet-wide, so the server reports the pruning
// ratio and off-chip-traffic savings of the whole workload, the
// multi-tenant regime the paper's memory-bound analysis targets.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/sample"
)

// Admission errors.
var (
	ErrServerClosed = errors.New("serve: server closed")
	ErrBusy         = errors.New("serve: too many active sessions")
	ErrEmptyPrompt  = errors.New("serve: request needs a non-empty prompt")
	ErrBadToken     = errors.New("serve: prompt token out of vocabulary")
)

// FinishReason tells why a session stopped producing tokens.
type FinishReason string

const (
	// ReasonLength: the session produced its MaxTokens budget.
	ReasonLength FinishReason = "length"
	// ReasonContextFull: the model's context window filled up.
	ReasonContextFull FinishReason = "context_full"
	// ReasonCanceled: the request context was canceled or timed out.
	ReasonCanceled FinishReason = "canceled"
	// ReasonRejected: the KV pool ran out of blocks mid-flight and nothing
	// could be reclaimed (no idle cached prefixes to evict, no session to
	// preempt, preemption budget spent).
	ReasonRejected FinishReason = "rejected"
	// ReasonStop: the generated tail matched one of the request's stop
	// sequences; Result.StopSeq and Result.StopTokens identify which.
	ReasonStop FinishReason = "stop"
)

// Config sizes a Server. The zero value is usable: NumCPU workers, exact
// attention, and paper-ish defaults everywhere else.
type Config struct {
	// Workers is the number of runner goroutines, each looping over the run
	// queue with its own kernel, head executor and engine (default NumCPU).
	// Runners share nothing but the queue and the pool, so non-attention
	// work (projections, FFN, sampling) of different sessions overlaps
	// across cores.
	Workers int
	// MaxSessions bounds concurrently admitted sessions (default 64).
	MaxSessions int
	// PromptChunk caps the prompt tokens one session prefills per
	// iteration, so long prompts cannot starve running generations
	// (default 32; negative is rejected by Validate).
	PromptChunk int
	// BlockRows is the KV pool block granularity in rows (default 32).
	BlockRows int
	// MaxBlocks bounds live pool blocks; 0 = unbounded.
	MaxBlocks int
	// DefaultMaxNew applies when a request leaves MaxTokens zero
	// (default 64).
	DefaultMaxNew int
	// SharePrefix enables prompt prefix sharing: the full BlockRows-sized
	// chunks of every prefilled prompt are published to an in-pool prefix
	// index, and a later Submit whose prompt starts with a cached chunk
	// chain adopts those KV blocks — and their quantized side-car
	// snapshots — read-only instead of re-running prefill over them. The
	// partial tail block past the last full chunk is shared too, with
	// copy-on-write at the first divergent append. Generated tokens are
	// bit-identical with sharing on or off; the win is admission-side:
	// prefill compute and time-to-first-token drop for every repeated
	// prefix (system prompts, chat history). The index keeps at most 64 MiB
	// alive (prefixBudgetBytes: whole KV blocks plus the quantized snapshots
	// of adopted prefixes): past that, a publish or adoption evicts the
	// least recently used chunks no live session still reads, so resident
	// memory does not grow with prompts served; under a MaxBlocks budget the
	// pool may evict sooner. Off by default.
	SharePrefix bool
	// MaxPreempts bounds how many times one session may be preempted —
	// its non-shared KV blocks released and its context scheduled for
	// cheap recomputation — before pool exhaustion finishes it
	// ReasonRejected. 0 means the default (3); negative disables
	// preemption entirely, restoring reject-on-exhaustion.
	MaxPreempts int
	// Tracer, when set, receives a typed span event for every lifecycle
	// transition of every session — submit, queueing, prefill chunks,
	// decode and replay steps, prefix adoptions, the whole preemption
	// ladder (preempt/park/resume), and the terminal finish (Detail is the
	// ReasonCode). Each event samples queue depth, dispatch concurrency,
	// and pool occupancy at emission. Recording is allocation-free, so the
	// tracer may stay attached in production; nil disables tracing with no
	// hot-path cost beyond one predictable branch.
	Tracer *obs.Tracer
	// Detokenize, when set, decodes a generated token id into its text
	// form; the engine stamps it onto every Event so transports (the SSE
	// front-end) can stream text without a second lookup. Must be
	// goroutine-safe and side-effect free.
	Detokenize func(token int) string
	// NewKernel builds one generation-phase attention kernel per runner;
	// nil means exact attention. Because one runner's kernel serves many
	// interleaved sessions, kernels must not carry state across Attend
	// calls beyond reusable scratch: the Token-Picker, quantized-exact
	// and oracle kernels qualify, the SpAtten cascade kernel does NOT
	// (it accumulates per-sequence token importance and needs a fresh
	// instance per generation). Kernels exposing Stats/ResetStats feed
	// the fleet-wide transfer report.
	NewKernel func() model.Kernel
	// SpeculateK enables speculative decoding when > 0: each generation
	// step becomes a draft-and-verify pass that verifies up to SpeculateK
	// prompt-lookup draft tokens (model.NgramDraft) in one model sweep; the
	// per-session window walks [1, SpeculateK] with recent acceptance.
	// Composes with every worker count, prefix sharing, and the preemption
	// ladder; emitted tokens are bit-identical to non-speculative decoding
	// for greedy and seeded sampling alike. Negative is rejected by Validate.
	SpeculateK int
}

// defaultBlockRows is the KV pool block granularity when Config.BlockRows is
// unset; PrefixKey falls back to it so router and index agree on chunking.
const defaultBlockRows = 32

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.PromptChunk <= 0 {
		c.PromptChunk = 32
	}
	if c.BlockRows <= 0 {
		c.BlockRows = defaultBlockRows
	}
	if c.DefaultMaxNew <= 0 {
		c.DefaultMaxNew = 64
	}
	if c.MaxPreempts == 0 {
		c.MaxPreempts = 3
	}
	return c
}

// Result is the terminal state of a session.
type Result struct {
	Reason FinishReason
	Err    error // non-nil for ReasonCanceled / ReasonRejected
	// Usage is the per-request token accounting: prompt and generated
	// counts, prefix-index rows adopted instead of prefilled, and tokens
	// re-consumed by preemption replay.
	Usage Usage
	// StopSeq indexes the GenerateRequest.Stop sequence that ended the
	// session when Reason == ReasonStop; -1 otherwise. StopTokens is the
	// matched sequence itself.
	StopSeq    int
	StopTokens []int
	// TTFT is the time from Submit to the first emitted token (zero if the
	// session finished without emitting). Recorded at emission inside the
	// engine, so it is immune to consumer scheduling delays.
	TTFT time.Duration
	// Elapsed is the time from Submit to session finish.
	Elapsed time.Duration
}

// session is one admitted request moving through the scheduler.
type session struct {
	id        uint64 // 1-based admission sequence, the trace session id
	rid       uint64 // FNV hash of the request's RequestID (0 = none)
	ctx       context.Context
	cancel    context.CancelFunc // releases the session's derived context
	req       GenerateRequest
	maxTokens int // effective generation budget (request or server default)
	dec       *model.Decoder
	stream    *Stream
	emit      chan<- Event
	sampler   *sample.Chain
	submitted time.Time
	firstTok  time.Time // zero until the first token is emitted
	lastTok   time.Time // previous emission (inter-token latency)
	started   bool      // first iteration has begun
	parked    bool      // sitting on (or just promoted off) the stalled list
	parkedAt  int64     // Server.finishes when last preempted (see canResume)
	promptPos int       // prompt tokens consumed so far
	next      int       // next token to feed to Step (already emitted)
	generated int
	// penCtx is prompt plus emitted tokens: the history the sampler's
	// repetition penalty reads, whose generated tail (gen) preemption
	// replays. Capacity is reserved at admission, so appends never move it.
	penCtx []int

	adopted    int  // context rows adopted from the prefix index
	adoptedAll int  // cumulative adopted rows across preemption rebuilds
	recomputed int  // generated tokens re-consumed during replay
	hitCounted bool // this session already counted toward PrefixStats.Hits

	// Preemption state: gen()[replayPos:replayEnd] are emitted tokens whose
	// KV rows must be recomputed (through the generation kernel, so the
	// rebuild is bit-identical) before new tokens may be sampled. advance
	// never runs while replayPos < replayEnd, so the tail is stable during
	// replay by construction.
	replayPos int
	replayEnd int
	preempts  int // times this session has been preempted

	// Speculative decoding (Config.SpeculateK > 0): spec drives the
	// session's draft-and-verify passes; specEmit is the reusable emitter
	// one pass borrows (a value field so the steady-state pass allocates
	// nothing). drafted/acceptedDrafts accumulate into Usage.
	spec           *model.SpecDecoder
	specEmit       specEmitter
	drafted        int
	acceptedDrafts int
}

// gen returns the emitted-token tail of the session history.
func (sess *session) gen() []int { return sess.penCtx[len(sess.req.Prompt):] }

// progress orders sessions for victim selection: consumed prompt tokens
// plus emitted tokens, i.e. how much work preemption would throw away.
func (sess *session) progress() int { return sess.promptPos + sess.generated }

// statKernel matches kernels that account their off-chip traffic.
type statKernel interface {
	Stats() attention.Stats
	ResetStats()
}

// Server is the continuous-batching engine.
type Server struct {
	cfg      Config
	params   *model.Params
	pool     *Pool
	prefixes *prefixIndex // nil unless Config.SharePrefix
	sched    scheduler
	met      *Metrics
	tracer   *obs.Tracer    // nil unless Config.Tracer
	wg       sync.WaitGroup // runners
	sessWG   sync.WaitGroup // in-flight sessions

	// newDraft builds a speculating session's draft source in place of
	// the n-gram draft; nil outside tests, which script drafts through it.
	newDraft func() model.DraftSource

	closeOnce sync.Once
	finishes  atomic.Int64 // sessions finished so far (see canResume)
	// genToks counts tokens sampled from decode and verify steps, booked
	// before the step's sessions can finish (Report.GenTokens).
	genToks atomic.Int64

	mu        sync.Mutex
	closed    bool
	active    int
	peak      int
	admitted  int64
	finished  map[FinishReason]int64
	preempted int64 // preemption events
	agg       attention.Stats
}

// Report is a fleet-wide snapshot: session counts, token counts, peak
// concurrency, aggregated attention-transfer statistics, and pool state.
// A token is counted before the stream that carried it closes; the
// attention statistics lag the currently executing iterations until Close.
type Report struct {
	Admitted       int64
	Finished       map[FinishReason]int64
	PromptTokens   int64 // prompt tokens actually prefilled (adopted rows excluded)
	GenTokens      int64
	PeakConcurrent int
	// Preempted counts preemption events; RecomputeTokens counts the
	// generated tokens preempted sessions re-consumed while catching up.
	Preempted       int64
	RecomputeTokens int64
	Attn            attention.Stats
	Pool            PoolStats
	// Prefix is the prefix-sharing index accounting (zero when disabled).
	Prefix PrefixStats
	// Exec is the process-wide exec.Shared() pool's slot accounting: tasks
	// run, tasks stolen, cumulative busy time (zero on one CPU). Every
	// server of the process, and every library decoder on the default
	// executor, adds to the same totals.
	Exec exec.SlotStats
}

// Completed sums finished sessions across reasons.
func (r Report) Completed() int64 {
	var n int64
	for _, v := range r.Finished {
		n += v
	}
	return n
}

// NewServer builds a server over trained params and starts its runners. The
// config must be valid: NewServer panics with the *ConfigError describing
// the offending field otherwise — call Config.Validate first when the
// values come from outside the program.
func NewServer(params *model.Params, cfg Config) *Server {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		params:   params,
		pool:     NewPool(cfg.BlockRows, params.Cfg.HeadDim, cfg.MaxBlocks),
		finished: make(map[FinishReason]int64),
	}
	if cfg.SharePrefix {
		s.prefixes = newPrefixIndex(s.pool, cfg.BlockRows, params.Cfg.Layers, params.Cfg.Heads)
	}
	s.sched.cond = sync.NewCond(&s.sched.mu)
	s.sched.resumeGate = s.canResume
	s.tracer = cfg.Tracer
	s.met = newMetrics(s)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.run(i)
	}
	return s
}

// Pool exposes the server's KV block pool (read its Stats for reporting).
func (s *Server) Pool() *Pool { return s.pool }

// Metrics exposes the engine's metric families (always non-nil); render them
// with Metrics().Registry.WritePrometheus or read individual counters and
// histograms directly.
func (s *Server) Metrics() *Metrics { return s.met }

// Tracer returns the lifecycle tracer configured at construction, nil when
// tracing is disabled.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// MaxSessions returns the server's admission bound after defaulting — the
// saturation threshold a fleet router spills at.
func (s *Server) MaxSessions() int { return s.cfg.MaxSessions }

// DefaultMaxNew returns the effective generation budget of requests that
// leave MaxTokens zero, after defaulting.
func (s *Server) DefaultMaxNew() int { return s.cfg.DefaultMaxNew }

// ActiveSessions returns how many admitted sessions have not yet finished:
// a single locked point read (no allocation), cheap enough for a fleet
// router to poll on every routing decision.
//
//topick:noalloc
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	n := s.active
	s.mu.Unlock()
	return n
}

// hashRequestID folds a caller-supplied request id into the uint64 that
// rides trace events (FNV-1a over the raw bytes; empty id hashes to 0 =
// "none"). The same id hashes identically on every replica, which is what
// makes multi-replica trace correlation work.
func hashRequestID(id string) uint64 {
	if id == "" {
		return 0
	}
	h := fnvOffset
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime
	}
	return h
}

// trace records one lifecycle event for sess, sampling queue depth, dispatch
// concurrency, and pool occupancy at emission. Callers must hold no engine
// locks. No-op without a tracer.
func (s *Server) trace(sess *session, kind obs.Kind, step, tokens, rows, detail int32) {
	if s.tracer == nil {
		return
	}
	queued, stalled, running := s.sched.depths()
	ps := s.pool.Stats()
	s.tracer.Record(obs.Event{
		Session: sess.id,
		ReqID:   sess.rid,
		Kind:    kind,
		Step:    step,
		Tokens:  tokens,
		Rows:    rows,
		Batch:   int32(running),
		Queue:   int32(queued),
		Stalled: int32(stalled),
		InUse:   int32(ps.InUse),
		Free:    int32(ps.Free),
		Detail:  detail,
	})
}

// Submit admits a generation request. The request is validated first — a
// *ValidationError (matching ErrInvalidRequest, and ErrEmptyPrompt /
// ErrBadToken where those apply) reports the offending field. Admission
// returns ErrBusy when MaxSessions sessions are in flight and
// ErrServerClosed after Close. The returned stream carries the generated
// events; ctx cancellation, deadline, or Stream.Cancel stops the session
// at its next iteration.
func (s *Server) Submit(ctx context.Context, req GenerateRequest) (*Stream, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// Vocabulary-dependent checks at admission: the decoder panics on
	// out-of-range tokens, and a panic in a runner would take down every
	// session.
	if err := req.validateVocab(s.params.Cfg.VocabSize); err != nil {
		return nil, err
	}
	// Validate above already vetted the sampling config; MustNew cannot
	// fire.
	sampler := sample.MustNew(req.Sampling)
	maxTokens := req.MaxTokens
	if maxTokens == 0 {
		maxTokens = s.cfg.DefaultMaxNew
	}
	if ctx == nil {
		ctx = context.Background()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	if s.active >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d active", ErrBusy, s.cfg.MaxSessions)
	}
	s.active++
	if s.active > s.peak {
		s.peak = s.active
	}
	s.admitted++
	id := uint64(s.admitted) // 1-based admission sequence = trace session id
	// Register with the drain group while still holding the lock: a
	// concurrent Close observes either closed-before-us (we bailed above)
	// or a non-zero session count, never a window where the session is
	// admitted but invisible to sessWG.Wait.
	s.sessWG.Add(1)
	s.mu.Unlock()
	s.met.Admitted.Inc()

	// A session can emit at most MaxSeq - len(prompt) + 1 tokens before the
	// window fills (the +1 is the token sampled from the final prompt
	// logits), so cap the stream buffer there: huge MaxTokens values and
	// long prompts must not reserve buffer memory they can never use.
	buf := maxTokens
	if lim := s.params.Cfg.MaxSeq - len(req.Prompt) + 1; buf > lim {
		buf = lim
	}
	if buf < 0 {
		buf = 0
	}
	// The session's context is derived so Stream.Cancel can detach the
	// consumer without touching the caller's ctx; finish releases it.
	sctx, cancel := context.WithCancel(ctx)
	events := make(chan Event, buf)
	sess := &session{
		id:        id,
		rid:       hashRequestID(req.RequestID),
		ctx:       sctx,
		cancel:    cancel,
		req:       req,
		maxTokens: maxTokens,
		dec:       model.NewDecoderWith(s.params, nil, s.pool.Provider()),
		emit:      events,
		sampler:   sampler,
		submitted: time.Now(),
		penCtx:    append(make([]int, 0, len(req.Prompt)+buf), req.Prompt...),
	}
	sess.stream = &Stream{events: events, done: make(chan struct{}), cancel: cancel}
	if s.cfg.SpeculateK > 0 {
		var draft model.DraftSource = &model.NgramDraft{}
		if s.newDraft != nil {
			draft = s.newDraft()
		}
		sess.spec = model.NewSpecDecoder(sess.dec, draft, s.cfg.SpeculateK)
	}
	s.trace(sess, obs.KindSubmit, 0, 0, 0, 0)
	if s.prefixes != nil {
		s.adoptPrefix(sess, true)
	}
	s.trace(sess, obs.KindQueued, 0, 0, 0, 0)
	s.sched.push(sess)
	return sess.stream, nil
}

// adoptPrefix seeds a fresh session decoder with the longest cached prompt
// prefix; prefill then resumes past the adopted rows, which is where the
// prefix-sharing TTFT and prefill-compute savings come from.
func (s *Server) adoptPrefix(sess *session, firstProbe bool) {
	rows := s.prefixes.adopt(sess.dec, sess.req.Prompt, firstProbe, !sess.hitCounted)
	if rows == 0 {
		return
	}
	sess.hitCounted = true
	if err := sess.dec.AdoptPrefix(rows); err != nil {
		// Unreachable for a fresh decoder; fall back to a full prefill and
		// return the adopted references.
		sess.dec.Reset()
		return
	}
	sess.promptPos = rows
	sess.adopted = rows
	sess.adoptedAll += rows
	s.met.PrefixRows.Add(int64(rows))
	s.trace(sess, obs.KindPrefixAdopt, 0, int32(rows), int32(rows), 0)
}

// Close stops admission, waits for in-flight sessions to drain, shuts the
// runners down, and releases the prefix index's cached blocks so the pool
// refcounts balance to zero. It is idempotent: concurrent and repeated
// calls all block until the first shutdown completes.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.sessWG.Wait()
		s.sched.close()
		s.wg.Wait()
		if s.prefixes != nil {
			s.prefixes.evictAll()
		}
	})
}

// Report snapshots the fleet-wide statistics.
func (s *Server) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := Report{
		Admitted:        s.admitted,
		Finished:        make(map[FinishReason]int64, len(s.finished)),
		PromptTokens:    s.met.PromptTokens.Value(),
		GenTokens:       s.genToks.Load(),
		PeakConcurrent:  s.peak,
		Preempted:       s.preempted,
		RecomputeTokens: s.met.Recomputed.Value(),
		Pool:            s.pool.Stats(),
		Exec:            exec.StatsOf(exec.Shared()),
	}
	if s.prefixes != nil {
		r.Prefix = s.prefixes.Stats()
	}
	for k, v := range s.finished {
		r.Finished[k] = v
	}
	r.Attn.Add(s.agg)
	return r
}

// finishSpecPass records the accounting of a completed verify pass: spec
// metrics, the session's Usage tallies, and the verify_step trace (Tokens =
// accepted drafts, Rows = post-rollback length).
func (s *Server) finishSpecPass(sess *session, res model.SpecResult) {
	sess.drafted += res.Drafted
	sess.acceptedDrafts += res.Accepted
	s.met.SpecVerifies.Inc()
	if res.Drafted > 0 {
		s.met.SpecDrafted.Add(int64(res.Drafted))
		s.met.SpecAccepted.Add(int64(res.Accepted))
		s.met.SpecRolledBack.Add(int64(res.Drafted - res.Accepted))
		s.met.SpecAcceptRate.Observe(float64(res.Accepted) / float64(res.Drafted))
	}
	s.trace(sess, obs.KindVerifyStep, int32(sess.generated), int32(res.Accepted), int32(sess.dec.Len()), 0)
}

// specEmitter adapts the engine's per-token emission to model.Emitter for
// one verify pass. It samples each verified position from its TRUE logits
// with the session's own sampler (consuming RNG exactly as a plain decode
// step would) and emits through the shared emitToken path — but a terminal
// condition is only RECORDED (done/res), never acted on: finish releases
// the session's KV caches, and the pass still has to roll them back.
type specEmitter struct {
	s    *Server
	sess *session
	wid  int
	rows int // context rows attended by the next emission's position
	done bool
	res  Result
}

// Emit implements model.Emitter.
func (e *specEmitter) Emit(logits []float32) (int, bool) {
	s, sess := e.s, e.sess
	tok := sess.sampler.Sample(logits, sess.penCtx)
	e.rows++
	s.trace(sess, obs.KindDecodeStep, int32(sess.generated+1), 1, int32(e.rows), 0)
	done, res := s.emitToken(sess, tok, e.wid)
	if done {
		e.done, e.res = true, res
	}
	return tok, done
}

// storageErr handles a decoder error mid-session. Pool exhaustion walks a
// reclamation ladder — evict an idle cached prefix (or unpublish a tail
// block only this session still reads, sparing its copy), preempt the least-
// progressed waiting session, preempt this session behind the pool's other
// holders — and finishes the session ReasonRejected only when every rung
// fails and the pool is still full. Any other error finishes the session
// directly. It returns true when the runner must not requeue the session: it
// finished, or it was preempted onto the stalled list.
func (s *Server) storageErr(sess *session, err error) bool {
	if !errors.Is(err, ErrNoBlocks) {
		s.finishErr(sess, err)
		return true
	}
	// Cached-but-idle prefix blocks must never starve live sessions. This
	// rung is cache reclamation, not preemption, so it runs even when
	// MaxPreempts < 0 disables the preemption rungs below.
	if s.prefixes != nil && (s.prefixes.evictOne() || s.prefixes.dropOwnTails(sess.dec)) {
		s.met.LadderEvict.Inc()
		return false // retry on the reclaimed blocks, or without a tail copy
	}
	if s.cfg.MaxPreempts < 0 {
		s.met.LadderReject.Inc()
		s.finishErr(sess, err)
		return true
	}
	if v := s.sched.steal(sess.progress(), s.cfg.MaxPreempts); v != nil {
		// The victim stalls until the run queue drains; this session retries
		// on the victim's freed blocks at its next iteration.
		s.met.LadderSteal.Inc()
		s.preempt(v)
		s.trace(v, obs.KindPreempt, int32(v.generated), 0, 0, obs.PreemptStolen)
		v.parked = true
		s.trace(v, obs.KindPark, int32(v.generated), 0, 0, obs.PreemptStolen)
		s.sched.stall(v)
		return false
	}
	if sess.preempts < s.cfg.MaxPreempts && s.othersActive() {
		s.met.LadderSelf.Inc()
		s.preempt(sess)
		s.trace(sess, obs.KindPreempt, int32(sess.generated), 0, 0, obs.PreemptSelf)
		sess.parked = true
		s.trace(sess, obs.KindPark, int32(sess.generated), 0, 0, obs.PreemptSelf)
		s.sched.stall(sess)
		return true
	}
	if s.pool.hasCapacity(1) {
		// Another runner's session parked or finished since the lease failed:
		// the shortage this verdict would rest on is gone. A retry that fails
		// again has first leased what is free, so this cannot loop.
		return false
	}
	s.met.LadderReject.Inc()
	s.finishErr(sess, err)
	return true
}

// canResume is the scheduler's resume gate. A parked session holds no blocks
// and rebuilds its whole context (prompt plus generated rows) before it emits
// again; waking it for less room than that sends it straight back into the
// exhaustion that parked it — against sessions it cannot steal from, because
// other runners are mid-iteration on them — and burns its preemption budget.
// Leading prompt blocks the prefix index still caches are re-adopted, not
// leased, so they do not count against the room it needs. It also waits for
// some session to finish after it parked: its own released blocks are room
// for the session it yielded to, and two sessions that resume into each
// other's room otherwise preempt each other in turn until both budgets are
// spent.
func (s *Server) canResume(v *session) bool {
	rows := len(v.req.Prompt) + v.generated
	blocks := (rows + s.cfg.BlockRows - 1) / s.cfg.BlockRows
	if s.prefixes != nil {
		blocks -= s.prefixes.cachedBlocks(v.req.Prompt)
	}
	return s.finishes.Load() > v.parkedAt &&
		s.pool.hasCapacity(2*s.params.Cfg.Layers*s.params.Cfg.Heads*blocks)
}

// othersActive reports whether any other non-parked session is in flight —
// if everything else is finished or stalled (and stalled sessions hold no
// block references), preempting the current one cannot free anything it
// will not immediately need again, so exhaustion is a genuine capacity
// shortage.
func (s *Server) othersActive() bool {
	parked := s.sched.stalledLen()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active > 1+parked
}

// preempt releases a session's pool blocks and rewinds it for replay: the
// prompt re-prefills cheaply (via the prefix index when enabled — typically
// adopting the very blocks this session published during its first
// prefill, so only its non-shared state is truly recomputed) and the
// already-emitted tokens are re-consumed through the generation kernel
// without being re-emitted. Re-adoption is deliberately lazy (the
// prefill-time re-probe): a parked session must hold zero block
// references, shared ones included, so the eviction rung can reclaim idle
// index entries while it waits. The caller owns sess: either it is in the
// caller's iteration, or it was just stolen from the run queue.
func (s *Server) preempt(sess *session) {
	// Every emitted token except the last was consumed by Step; the last
	// one is still pending in sess.next and is consumed on resume.
	sess.replayEnd = sess.generated - 1
	if sess.replayEnd < 0 {
		sess.replayEnd = 0
	}
	sess.replayPos = 0
	sess.promptPos = 0
	sess.adopted = 0
	sess.preempts++
	sess.dec.Reset()
	sess.parkedAt = s.finishes.Load()
	s.met.Preemptions.Inc()
	s.mu.Lock()
	s.preempted++
	s.mu.Unlock()
}

// advance runs the sampler chain on logits, emits the chosen token as an
// Event, and reports whether the session is finished (stop-sequence match
// or length budget spent).
func (s *Server) advance(sess *session, logits []float32, wid int) bool {
	tok := sess.sampler.Sample(logits, sess.penCtx)
	done, res := s.emitToken(sess, tok, wid)
	if done {
		s.finish(sess, res)
	}
	return done
}

// emitToken emits an already-sampled token: timing metrics, the stream
// Event, session bookkeeping, and terminal-condition detection. It reports
// whether generation must end and with what Result, but does NOT finish the
// session — the speculative path must roll the KV caches back before finish
// releases them, so acting on the result is the caller's job.
func (s *Server) emitToken(sess *session, tok, wid int) (bool, Result) {
	now := time.Now()
	if sess.generated == 0 {
		sess.firstTok = now
		s.met.TTFT.Observe(now.Sub(sess.submitted).Seconds())
	} else if !sess.lastTok.IsZero() {
		s.met.InterToken.Observe(now.Sub(sess.lastTok).Seconds())
	}
	sess.lastTok = now
	ev := Event{Token: tok, Index: sess.generated, Elapsed: now.Sub(sess.submitted)}
	if s.cfg.Detokenize != nil {
		ev.Text = s.cfg.Detokenize(tok)
	}
	sess.emit <- ev
	s.met.Generated.AddSlot(wid, 1)
	sess.next = tok
	sess.penCtx = append(sess.penCtx, tok)
	sess.generated++
	// Stop sequences win over the length budget when one token satisfies
	// both: the consumer learns why generation really ended.
	if idx, seq := matchStop(sess.req.Stop, sess.gen()); idx >= 0 {
		return true, Result{Reason: ReasonStop, StopSeq: idx, StopTokens: seq}
	}
	if sess.generated >= sess.maxTokens {
		return true, Result{Reason: ReasonLength}
	}
	return false, Result{}
}

// finishErr maps decoder/pool errors to a terminal reason.
func (s *Server) finishErr(sess *session, err error) {
	reason := ReasonRejected
	if errors.Is(err, model.ErrContextFull) {
		reason = ReasonContextFull
		err = nil // expected terminal condition, not a failure
	}
	s.finish(sess, Result{Reason: reason, Err: err})
}

// finish releases the session's KV blocks back to the pool, records the
// outcome and its usage accounting, and wakes the stream's consumer.
func (s *Server) finish(sess *session, res Result) {
	res.Usage = Usage{
		PromptTokens:        sess.promptPos,
		GeneratedTokens:     sess.generated,
		PrefixHitRows:       sess.adoptedAll,
		RecomputeTokens:     sess.recomputed,
		DraftedTokens:       sess.drafted,
		AcceptedDraftTokens: sess.acceptedDrafts,
	}
	if res.Reason != ReasonStop {
		res.StopSeq = -1
	}
	res.Elapsed = time.Since(sess.submitted)
	if !sess.firstTok.IsZero() {
		res.TTFT = sess.firstTok.Sub(sess.submitted)
	}
	s.met.Finished[res.Reason].Inc()
	// Traced before the blocks are released, so the finish event samples the
	// occupancy the session was still holding.
	s.trace(sess, obs.KindFinish,
		int32(sess.generated), int32(sess.adoptedAll), int32(sess.promptPos),
		ReasonCode(res.Reason))
	sess.dec.Release()
	s.finishes.Add(1) // before the stream closes: a consumer sees it counted
	sess.cancel()     // release the derived context
	close(sess.emit)
	sess.stream.res = res
	close(sess.stream.done)

	s.mu.Lock()
	s.active--
	s.finished[res.Reason]++
	s.mu.Unlock()
	s.sessWG.Done()
	// The released blocks may be exactly what a stalled session waits for.
	s.sched.kick()
}

// scheduler is the FIFO run queue runners pull their iterations from. It is
// a ring buffer: popped slots are nil'd immediately, so a finished
// session's decoder and KV side-cars become collectable the moment it
// leaves the queue instead of lingering in a sliced-off backing array
// under sustained load.
//
// Preempted sessions park on the stalled list instead of the run queue:
// they hold no exclusive pool blocks, and re-admitting them immediately
// would just re-create the exhaustion that preempted them. A stalled
// session is promoted only when the run queue empties AND the pool can
// plausibly serve it again (the resume gate: capacity freed up) — or, as
// the liveness fallback, when no session is mid-iteration either, so the
// engine can never deadlock with everyone parked: the promoted session
// either proceeds or walks the reclamation ladder to its rejection.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []*session
	head    int
	count   int
	running int // sessions currently inside an iteration
	stalled []*session
	// resumeGate reports whether a stalled session is worth waking (pool
	// capacity available); nil means always.
	resumeGate func(*session) bool
	closed     bool
}

func (sc *scheduler) pushLocked(sess *session) {
	if sc.count == len(sc.buf) {
		n := len(sc.buf) * 2
		if n < 8 {
			n = 8
		}
		fresh := make([]*session, n)
		for i := 0; i < sc.count; i++ {
			fresh[i] = sc.buf[(sc.head+i)%len(sc.buf)]
		}
		sc.buf = fresh
		sc.head = 0
	}
	sc.buf[(sc.head+sc.count)%len(sc.buf)] = sess
	sc.count++
}

func (sc *scheduler) push(sess *session) {
	sc.mu.Lock()
	sc.pushLocked(sess)
	sc.mu.Unlock()
	sc.cond.Signal()
}

// stall parks a preempted session until the run queue drains.
func (sc *scheduler) stall(sess *session) {
	sc.mu.Lock()
	sc.stalled = append(sc.stalled, sess)
	sc.mu.Unlock()
	sc.cond.Signal() // a runner may be waiting on an empty run queue
}

// promoteStalledLocked moves one parked session back to the run queue when
// warranted: a canceled session unconditionally (its result must not wait
// for pool capacity), else the oldest one — whenever the pool freed up, or
// nothing else could possibly free it, or we are draining for close.
// Promotion is independent of queue depth: under sustained load the run
// queue never empties, and parked sessions must not starve behind it.
func (sc *scheduler) promoteStalledLocked() {
	if len(sc.stalled) == 0 {
		return
	}
	idx := -1
	for i, v := range sc.stalled {
		if v.ctx != nil && v.ctx.Err() != nil {
			idx = i
			break
		}
	}
	if idx < 0 && (sc.closed || (sc.running == 0 && sc.count == 0) ||
		sc.resumeGate == nil || sc.resumeGate(sc.stalled[0])) {
		idx = 0
	}
	if idx >= 0 {
		sc.pushLocked(sc.stalled[idx])
		copy(sc.stalled[idx:], sc.stalled[idx+1:])
		sc.stalled[len(sc.stalled)-1] = nil
		sc.stalled = sc.stalled[:len(sc.stalled)-1]
	}
}

// pop blocks for a runnable session, removes the run queue's front one and
// counts it as running until the caller's end. It returns nil once the
// scheduler is closed and drained (stalled sessions included).
func (sc *scheduler) pop() *session {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for {
		sc.promoteStalledLocked()
		if sc.count > 0 {
			break
		}
		if sc.closed && len(sc.stalled) == 0 {
			return nil
		}
		sc.cond.Wait()
	}
	sess := sc.buf[sc.head]
	sc.buf[sc.head] = nil // release the slot: popped sessions must be collectable
	sc.head = (sc.head + 1) % len(sc.buf)
	sc.count--
	sc.running++
	return sess
}

// end ends the iteration pop opened. When nothing is left running, waiting
// runners re-check the stalled list: a parked session is then the only way
// forward.
func (sc *scheduler) end() {
	sc.mu.Lock()
	sc.running--
	wake := sc.running == 0 && len(sc.stalled) > 0
	sc.mu.Unlock()
	if wake {
		sc.cond.Broadcast()
	}
}

// kick re-evaluates the stalled list after pool capacity was freed outside
// the scheduler's view (a session finished and released its blocks).
func (sc *scheduler) kick() {
	sc.cond.Broadcast()
}

// stalledLen returns how many sessions are parked.
func (sc *scheduler) stalledLen() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.stalled)
}

// depths snapshots the scheduler's run-queue depth, parked-session count,
// and running-session count in one lock acquisition.
func (sc *scheduler) depths() (queued, stalled, running int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.count, len(sc.stalled), sc.running
}

// steal removes and returns the least-progressed waiting session whose
// progress does not exceed maxProgress and whose preemption budget is not
// spent; nil when no such victim is queued. Equal progress still yields a
// victim — identical prompts advance in lockstep, and the running
// session keeping its blocks while the victim restarts cheaply through the
// prefix index beats both of them thrashing. Queued sessions are not
// executing, so the caller owns the returned session until it parks it.
func (sc *scheduler) steal(maxProgress, maxPreempts int) *session {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	bestIdx := -1
	var best *session
	for i := 0; i < sc.count; i++ {
		v := sc.buf[(sc.head+i)%len(sc.buf)]
		if v.preempts >= maxPreempts {
			continue
		}
		if v.parked {
			// Promoted off the stalled list but not yet run: its
			// blocks are already released, so preempting it again frees
			// nothing and would emit a second park with no resume between.
			continue
		}
		p := v.progress()
		if p <= v.adopted {
			// Nothing computed beyond (at most) adopted shared rows: the
			// victim holds no private blocks, so preempting it frees
			// nothing and only burns its budget toward a spurious reject.
			continue
		}
		if p <= maxProgress && (best == nil || p < best.progress()) {
			best, bestIdx = v, i
		}
	}
	if best == nil {
		return nil
	}
	// Close the gap by shifting the queue's front over the stolen slot.
	for i := bestIdx; i > 0; i-- {
		sc.buf[(sc.head+i)%len(sc.buf)] = sc.buf[(sc.head+i-1)%len(sc.buf)]
	}
	sc.buf[sc.head] = nil
	sc.head = (sc.head + 1) % len(sc.buf)
	sc.count--
	return best
}

func (sc *scheduler) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.mu.Unlock()
	sc.cond.Broadcast()
}
