// Package fleet replicates the serving engine: a Fleet owns N independent
// serve.Server replicas — each with its own KV pool, prefix index,
// scheduler, and metrics shard — behind a router that exploits the prefix
// index's chain hashing. Every request's leading prompt chunks are hashed
// with the same FNV chain the index keys its entries by (serve.PrefixKey),
// and rendezvous hashing on that key sends requests sharing a system prompt
// to the replica that already caches their KV blocks; a load-aware fallback
// spills to the least-loaded replica when the affine one is saturated. The
// front door adds the multi-tenant controls a shared deployment needs:
// per-tenant token-rate buckets and a fleet-wide admission bound, both
// surfaced through the engine's existing backpressure sentinels
// (serve.ErrBusy / serve.ErrServerClosed) so transports keep their 429/503
// mapping unchanged.
//
// Routing never touches generation state, so a fleet produces token streams
// bit-identical to a single engine for the same requests — the invariant
// the whole repo gates on.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tokenpicker/internal/model"
	"tokenpicker/internal/serve"
)

// ErrBadConfig is the sentinel every fleet *ConfigError matches via
// errors.Is.
var ErrBadConfig = errors.New("fleet: invalid config")

// ConfigError reports a Config field the fleet refuses to run with. It
// matches ErrBadConfig.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("fleet: config field %s %s", e.Field, e.Reason)
}

// Is reports whether target is ErrBadConfig, making every ConfigError match
// the sentinel.
func (e *ConfigError) Is(target error) bool { return target == ErrBadConfig }

// Config sizes a Fleet. The zero value is usable: two replicas of the
// default engine, affinity routing off (mirroring serve.Config.SharePrefix;
// the topick-serve CLI flips both on together), no tenant rate limits.
type Config struct {
	// Replicas is the engine replica count (default 2).
	Replicas int
	// Affinity enables prefix-affinity routing: requests are rendezvous-
	// hashed on their leading-chunk chain hash so shared prompts land on
	// the replica already caching their KV blocks. Off = pure least-loaded
	// routing. Affinity without Serve.SharePrefix still routes consistently
	// but reuses nothing, so the CLI couples the two flags.
	Affinity bool
	// AffinityChunks caps how many leading BlockRows-sized chunks feed the
	// affinity key (default 4). Prompts diverging past the cap still share
	// a key — deliberately: the shared system prompt is the head, and the
	// cap keeps the key stable across per-user tails.
	AffinityChunks int
	// SpillMargin is the load-aware fallback threshold: an affine request
	// spills to the least-loaded replica when the affine one runs more than
	// this many active sessions ahead of it (or is at MaxSessions). 0 means
	// the default (8); negative disables margin spilling, leaving only the
	// hard MaxSessions saturation check.
	SpillMargin int
	// MaxSessions bounds sessions active across the whole fleet (0 = the
	// sum of the replicas' own bounds). Exceeding it rejects with an error
	// matching serve.ErrBusy.
	MaxSessions int
	// TenantRate, when positive, enforces a per-tenant token budget:
	// each tenant's bucket refills at this many tokens per second, and a
	// request costs its prompt length plus its effective MaxTokens. Over
	// budget submits fail with a *RateLimitError (matching serve.ErrBusy).
	TenantRate float64
	// TenantBurst is the bucket capacity (default 4x TenantRate). Requests
	// costlier than a full bucket drain it entirely instead of never
	// passing.
	TenantBurst float64
	// Serve is the per-replica engine template. Serve.Tracer must be nil:
	// replicas assign session ids independently, so a shared tracer would
	// interleave colliding ids into one timeline. Correlate across replicas
	// with GenerateRequest.RequestID instead (the "rid" trace field).
	Serve serve.Config
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.AffinityChunks <= 0 {
		c.AffinityChunks = 4
	}
	if c.SpillMargin == 0 {
		c.SpillMargin = 8
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 4 * c.TenantRate
	}
	return c
}

// Validate returns the first violation as a *ConfigError (or the embedded
// template's own *serve.ConfigError). NewFleet panics with it, so programs
// building configs from external input should call Validate first.
func (c Config) Validate() error {
	if c.Replicas < 0 {
		return &ConfigError{Field: "Replicas", Reason: "must not be negative (0 means the default)"}
	}
	if c.AffinityChunks < 0 {
		return &ConfigError{Field: "AffinityChunks", Reason: "must not be negative (0 means the default)"}
	}
	if c.MaxSessions < 0 {
		return &ConfigError{Field: "MaxSessions", Reason: "must not be negative (0 means the sum of replica bounds)"}
	}
	if c.TenantRate < 0 {
		return &ConfigError{Field: "TenantRate", Reason: "must not be negative (0 disables rate limiting)"}
	}
	if c.TenantBurst < 0 {
		return &ConfigError{Field: "TenantBurst", Reason: "must not be negative (0 means 4x TenantRate)"}
	}
	if c.Serve.Tracer != nil {
		return &ConfigError{Field: "Serve.Tracer", Reason: "must be nil: replica session ids collide in a shared tracer; correlate with RequestID instead"}
	}
	return c.Serve.Validate()
}

// Request is one generation job addressed to the fleet: the engine request
// plus the tenant identity the rate limiter buckets by.
type Request struct {
	serve.GenerateRequest
	// Tenant identifies the rate-limit bucket this request draws from; the
	// empty string shares the anonymous bucket.
	Tenant string
}

// Fleet fronts N engine replicas with prefix-affinity routing, per-tenant
// rate limiting, and fleet-wide admission control.
type Fleet struct {
	cfg      Config
	replicas []*serve.Server
	perMax   int // each replica's MaxSessions after serve defaulting
	maxFleet int // fleet-wide admission bound
	met      *Metrics
	limiter  *tenantLimiter // nil when TenantRate == 0

	closed    atomic.Bool
	closeOnce sync.Once
}

// NewFleet builds the replicas over shared read-only params and starts
// them. The config must be valid: NewFleet panics with the describing error
// otherwise — call Config.Validate first when the values come from outside
// the program.
func NewFleet(params *model.Params, cfg Config) *Fleet {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	f := &Fleet{cfg: cfg, replicas: make([]*serve.Server, cfg.Replicas)}
	for i := range f.replicas {
		f.replicas[i] = serve.NewServer(params, cfg.Serve)
	}
	f.perMax = f.replicas[0].MaxSessions()
	f.maxFleet = cfg.MaxSessions
	if f.maxFleet == 0 {
		f.maxFleet = f.perMax * cfg.Replicas
	}
	if cfg.TenantRate > 0 {
		f.limiter = newTenantLimiter(cfg.TenantRate, cfg.TenantBurst)
	}
	f.met = newMetrics(f)
	return f
}

// Replicas returns the replica count.
func (f *Fleet) Replicas() int { return len(f.replicas) }

// Replica exposes one engine replica (per-replica stats, metrics, pool).
func (f *Fleet) Replica(i int) *serve.Server { return f.replicas[i] }

// Metrics exposes the fleet-level metric families (always non-nil). The
// registry holds only topick_fleet_* series; each replica keeps its own
// full registry at Replica(i).Metrics().
func (f *Fleet) Metrics() *Metrics { return f.met }

// Submit routes one request to a replica and returns its stream. Failures
// keep the engine's transport contract: validation errors match
// serve.ErrInvalidRequest, tenant rate limits and fleet-wide saturation
// match serve.ErrBusy, submits after Close match serve.ErrServerClosed.
func (f *Fleet) Submit(ctx context.Context, req Request) (*serve.Stream, error) {
	if f.closed.Load() {
		return nil, fmt.Errorf("fleet: %w", serve.ErrServerClosed)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if f.limiter != nil {
		maxTokens := req.MaxTokens
		if maxTokens == 0 {
			maxTokens = f.replicas[0].DefaultMaxNew()
		}
		retry, ok := f.limiter.take(req.Tenant, float64(len(req.Prompt)+maxTokens))
		if !ok {
			f.met.RateLimited.Inc()
			return nil, &RateLimitError{Tenant: req.Tenant, RetryAfter: retry}
		}
	}
	active := 0
	for _, r := range f.replicas {
		active += r.ActiveSessions()
	}
	if active >= f.maxFleet {
		f.met.Rejected.Inc()
		return nil, fmt.Errorf("fleet: %d sessions active fleet-wide: %w", active, serve.ErrBusy)
	}

	start := time.Now()
	idx, decision := f.route(req.Prompt)
	f.met.RouteSeconds.Observe(time.Since(start).Seconds())
	st, err := f.replicas[idx].Submit(ctx, req.GenerateRequest)
	if err != nil {
		return nil, err
	}
	// Decision counters move only on admitted sessions, so
	// topick_fleet_routed_total reconciles exactly with the replicas'
	// admission counters.
	switch decision {
	case decisionAffinity:
		f.met.RoutedAffinity.Inc()
	case decisionSpill:
		f.met.RoutedSpill.Inc()
	default:
		f.met.RoutedBalance.Inc()
	}
	f.met.ReplicaRouted[idx].Inc()
	return st, nil
}

// route picks the replica for prompt: rendezvous on the prefix key when
// affinity applies, least-loaded otherwise, with the load-aware spill
// fallback. The pure decision (routePick) is allocation-free; this wrapper
// only samples per-replica load first.
func (f *Fleet) route(prompt []int) (idx, decision int) {
	loads := make([]int, len(f.replicas))
	for i, r := range f.replicas {
		loads[i] = r.ActiveSessions()
	}
	chunks := 0
	var key uint64
	if f.cfg.Affinity {
		key, chunks = serve.PrefixKey(prompt, f.cfg.Serve.BlockRows, f.cfg.AffinityChunks)
	}
	return routePick(key, chunks, loads, f.cfg.SpillMargin, f.perMax)
}

// RoutingStats is the router-side accounting of a Report.
type RoutingStats struct {
	Affinity    int64 // admitted on their rendezvous-affine replica
	Spilled     int64 // diverted off a saturated affine replica
	Balanced    int64 // least-loaded (no affinity key, or affinity off)
	RateLimited int64 // rejected by a tenant bucket
	Rejected    int64 // rejected by fleet-wide admission
}

// Report is the fleet-wide snapshot: one engine report per replica plus the
// router accounting. Rollup sums the replica reports.
type Report struct {
	Replicas []serve.Report
	Routing  RoutingStats
}

// Report snapshots every replica and the router counters.
func (f *Fleet) Report() Report {
	rep := Report{Replicas: make([]serve.Report, len(f.replicas))}
	for i, r := range f.replicas {
		rep.Replicas[i] = r.Report()
	}
	rep.Routing = RoutingStats{
		Affinity:    f.met.RoutedAffinity.Value(),
		Spilled:     f.met.RoutedSpill.Value(),
		Balanced:    f.met.RoutedBalance.Value(),
		RateLimited: f.met.RateLimited.Value(),
		Rejected:    f.met.Rejected.Value(),
	}
	return rep
}

// Rollup folds the per-replica reports into one fleet-wide engine report:
// counters sum, the finish-reason map merges, and the kernel stats
// accumulate. PeakConcurrent is the sum of per-replica peaks — an upper
// bound on the true fleet-wide peak, which no replica can observe alone.
// Exec is taken once, from the first replica: every replica reports the
// same process-wide shared pool, so a sum would count it once per replica.
func (r Report) Rollup() serve.Report {
	var out serve.Report
	out.Finished = make(map[serve.FinishReason]int64)
	if len(r.Replicas) > 0 {
		out.Exec = r.Replicas[0].Exec
	}
	for _, rep := range r.Replicas {
		out.Admitted += rep.Admitted
		out.PromptTokens += rep.PromptTokens
		out.GenTokens += rep.GenTokens
		out.PeakConcurrent += rep.PeakConcurrent
		out.Preempted += rep.Preempted
		out.RecomputeTokens += rep.RecomputeTokens
		for k, v := range rep.Finished {
			out.Finished[k] += v
		}
		out.Attn.Add(rep.Attn)
		addPoolStats(&out.Pool, rep.Pool)
		addPrefixStats(&out.Prefix, rep.Prefix)
	}
	return out
}

func addPoolStats(dst *serve.PoolStats, s serve.PoolStats) {
	if dst.BlockRows == 0 {
		dst.BlockRows, dst.HeadDim = s.BlockRows, s.HeadDim
	}
	dst.Allocated += s.Allocated
	dst.Leases += s.Leases
	dst.InUse += s.InUse
	dst.Peak += s.Peak
	dst.Free += s.Free
	dst.Trimmed += s.Trimmed
	dst.Shares += s.Shares
	dst.Copies += s.Copies
}

func addPrefixStats(dst *serve.PrefixStats, s serve.PrefixStats) {
	dst.Entries += s.Entries
	dst.Lookups += s.Lookups
	dst.Hits += s.Hits
	dst.RowsReused += s.RowsReused
	dst.TailRows += s.TailRows
	dst.Published += s.Published
	dst.Evicted += s.Evicted
}

// Close drains and shuts down every replica; it is idempotent, and Submit
// fails with serve.ErrServerClosed afterwards.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() {
		f.closed.Store(true)
		for _, r := range f.replicas {
			r.Close()
		}
	})
}
