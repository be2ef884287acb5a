package serve

import (
	"tokenpicker/internal/exec"
	"tokenpicker/internal/obs"
)

// Metrics is the engine's zero-alloc metrics surface: counters incremented
// on the per-token hot path (sharded by worker), latency histograms for the
// serving SLO quantities, and scrape-time gauge/counter funcs over the
// subsystems that already keep their own totals (pool, prefix index,
// scheduler, the shared executor). Everything is registered on one obs.Registry, so
// the HTTP front-end exposes the whole engine with a single
// WritePrometheus call. All fields are live — read them with Value(),
// Quantile(), or via the registry.
type Metrics struct {
	Registry *obs.Registry

	// Session lifecycle counters.
	Admitted *obs.Counter
	Finished map[FinishReason]*obs.Counter

	// Token counters, incremented by the workers on their own shards.
	// Generated counts emissions (reconciles with Usage.GeneratedTokens
	// summed over sessions), PromptTokens counts rows actually prefilled,
	// Recomputed counts preemption-replay steps (Usage.RecomputeTokens),
	// PrefixRows counts rows adopted from the prefix index
	// (Usage.PrefixHitRows).
	Generated    *obs.Counter
	PromptTokens *obs.Counter
	Recomputed   *obs.Counter
	PrefixRows   *obs.Counter

	// Preemption-ladder outcomes: idle-prefix evictions, queue-victim
	// steals, self-preemptions, and terminal rejections.
	Preemptions  *obs.Counter
	LadderEvict  *obs.Counter
	LadderSteal  *obs.Counter
	LadderSelf   *obs.Counter
	LadderReject *obs.Counter

	// Latency histograms (seconds). An iteration advances one session, so
	// PrefillChunk and DecodeStep get one observation per iteration that
	// advanced: the engine-step wall time of that prompt chunk, or of that
	// decode, replay or verify step.
	TTFT         *obs.Histogram // Submit → first emitted token
	InterToken   *obs.Histogram // gap between consecutive emissions
	QueueWait    *obs.Histogram // Submit → first iteration
	PrefillChunk *obs.Histogram // one prompt-chunk prefill
	DecodeStep   *obs.Histogram // one generation, replay or verify step

	// Iteration-shape families. BatchRows observes the token rows each
	// iteration actually advanced (an iteration whose entry failed its block
	// lease is excluded, so these reconcile exactly with the usage
	// counters) — its Mean() is the average occupancy, also exported as the
	// topick_batch_occupancy_rows gauge — while the row counters split the
	// same totals by phase, so
	// batch_decode_rows + batch_prefill_rows == sum(batch_rows).
	BatchIterations  *obs.Counter   // iterations executed
	BatchDecodeRows  *obs.Counter   // decode+replay rows across iterations
	BatchPrefillRows *obs.Counter   // prefill rows across iterations
	BatchRows        *obs.Histogram // rows per iteration (occupancy)
	BatchIteration   *obs.Histogram // wall seconds per iteration

	// Speculative-decoding counters, fed only when Config.SpeculateK > 0.
	// Drafted == Accepted + RolledBack always, and the per-session split
	// reconciles exactly with Usage.{DraftedTokens, AcceptedDraftTokens}
	// summed over finished sessions (drafts are only counted on verify
	// passes that completed — a pass killed by storage pressure books
	// nothing).
	SpecDrafted    *obs.Counter   // draft tokens submitted for verification
	SpecAccepted   *obs.Counter   // drafts the sampler reproduced (kept)
	SpecRolledBack *obs.Counter   // drafts rejected (KV rows truncated)
	SpecVerifies   *obs.Counter   // verify passes completed
	SpecAcceptRate *obs.Histogram // per-pass acceptance rate (drafting passes only)
}

// finishReasons is the fixed label set of the finished-sessions family.
var finishReasons = []FinishReason{
	ReasonLength, ReasonStop, ReasonContextFull, ReasonCanceled, ReasonRejected,
}

// ReasonCode maps a finish reason to its stable trace Detail code
// (obs.Event.Detail on finish events): 1 length, 2 stop, 3 context_full,
// 4 canceled, 5 rejected, 0 unknown.
func ReasonCode(r FinishReason) int32 {
	for i, known := range finishReasons {
		if known == r {
			return int32(i + 1)
		}
	}
	return 0
}

// newMetrics registers the engine's metric families over a fresh registry.
// The gauge funcs close over the server, reading subsystem state at scrape
// time so the hot path never double-books.
func newMetrics(s *Server) *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		Registry: reg,
		Admitted: reg.Counter("topick_sessions_admitted_total", "Sessions admitted by Submit.", ""),
		Finished: make(map[FinishReason]*obs.Counter, len(finishReasons)),

		Generated:    reg.Counter("topick_generated_tokens_total", "Tokens emitted to streams.", ""),
		PromptTokens: reg.Counter("topick_prompt_tokens_total", "Prompt tokens actually prefilled (adopted rows excluded).", ""),
		Recomputed:   reg.Counter("topick_recompute_tokens_total", "Generated tokens re-consumed by preemption replay.", ""),
		PrefixRows:   reg.Counter("topick_prefix_rows_adopted_total", "KV rows adopted from the prefix index instead of prefilled.", ""),

		Preemptions:  reg.Counter("topick_preemptions_total", "Sessions preempted (blocks released for reclamation).", ""),
		LadderEvict:  reg.Counter("topick_preempt_ladder_total", "Pool-exhaustion reclamation ladder outcomes.", `rung="evict_prefix"`),
		LadderSteal:  reg.Counter("topick_preempt_ladder_total", "Pool-exhaustion reclamation ladder outcomes.", `rung="steal_victim"`),
		LadderSelf:   reg.Counter("topick_preempt_ladder_total", "Pool-exhaustion reclamation ladder outcomes.", `rung="self_preempt"`),
		LadderReject: reg.Counter("topick_preempt_ladder_total", "Pool-exhaustion reclamation ladder outcomes.", `rung="reject"`),

		TTFT:         reg.Histogram("topick_ttft_seconds", "Time from Submit to first emitted token.", "", nil),
		InterToken:   reg.Histogram("topick_inter_token_seconds", "Gap between consecutive token emissions of one session.", "", nil),
		QueueWait:    reg.Histogram("topick_queue_wait_seconds", "Time from Submit to the session's first scheduling iteration.", "", nil),
		PrefillChunk: reg.Histogram("topick_prefill_chunk_seconds", "Wall time of one prompt-chunk prefill.", "", nil),
		DecodeStep:   reg.Histogram("topick_decode_step_seconds", "Wall time of one generation, replay or verify step.", "", nil),

		BatchIterations:  reg.Counter("topick_batch_iterations_total", "Scheduling iterations executed.", ""),
		BatchDecodeRows:  reg.Counter("topick_batch_rows_total", "Token rows advanced by scheduling iterations, by phase.", `phase="decode"`),
		BatchPrefillRows: reg.Counter("topick_batch_rows_total", "Token rows advanced by scheduling iterations, by phase.", `phase="prefill"`),
		BatchRows: reg.Histogram("topick_batch_rows", "Token rows per scheduling iteration (occupancy).",
			"", []float64{1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256}),
		BatchIteration: reg.Histogram("topick_batch_iteration_seconds", "Wall time of one scheduling iteration's engine step.", "", nil),

		SpecDrafted:    reg.Counter("topick_spec_drafted_tokens_total", "Draft tokens submitted for speculative verification.", ""),
		SpecAccepted:   reg.Counter("topick_spec_accepted_tokens_total", "Draft tokens the session sampler reproduced and kept.", ""),
		SpecRolledBack: reg.Counter("topick_spec_rolled_back_tokens_total", "Draft tokens rejected and truncated from the KV caches.", ""),
		SpecVerifies:   reg.Counter("topick_spec_verify_passes_total", "Speculative verify passes completed.", ""),
		SpecAcceptRate: reg.Histogram("topick_spec_acceptance_rate", "Per-pass draft acceptance rate (passes that drafted at least one token).",
			"", []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}),
	}
	for _, r := range finishReasons {
		m.Finished[r] = reg.Counter("topick_sessions_finished_total",
			"Finished sessions by terminal reason.", `reason="`+string(r)+`"`)
	}

	// Average rows per iteration at scrape time; 0 until the first iteration.
	reg.GaugeFunc("topick_batch_occupancy_rows", "Mean token rows per scheduling iteration.", "", func() float64 {
		if m.BatchRows.Count() == 0 {
			return 0
		}
		return m.BatchRows.Mean()
	})

	// Scheduler and session gauges.
	reg.GaugeFunc("topick_sessions_active", "Admitted sessions not yet finished.", "", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.active)
	})
	reg.GaugeFunc("topick_queue_depth", "Sessions waiting in the run queue.", "", func() float64 {
		q, _, _ := s.sched.depths()
		return float64(q)
	})
	reg.GaugeFunc("topick_sessions_stalled", "Preempted sessions parked for pool capacity.", "", func() float64 {
		_, st, _ := s.sched.depths()
		return float64(st)
	})
	reg.GaugeFunc("topick_sessions_dispatching", "Sessions inside a scheduling iteration right now.", "", func() float64 {
		_, _, run := s.sched.depths()
		return float64(run)
	})

	// KV pool occupancy and monotonic totals from PoolStats.
	reg.GaugeFunc("topick_pool_blocks_in_use", "KV pool blocks currently referenced.", "", func() float64 {
		return float64(s.pool.Stats().InUse)
	})
	reg.GaugeFunc("topick_pool_blocks_free", "KV pool blocks parked on the free list.", "", func() float64 {
		return float64(s.pool.Stats().Free)
	})
	reg.CounterFunc("topick_pool_leases_total", "KV block leases handed out.", "", func() float64 {
		return float64(s.pool.Stats().Leases)
	})
	reg.CounterFunc("topick_pool_cow_copies_total", "Copy-on-write duplications of shared KV blocks.", "", func() float64 {
		return float64(s.pool.Stats().Copies)
	})
	reg.CounterFunc("topick_pool_trimmed_total", "Free KV blocks dropped by Trim.", "", func() float64 {
		return float64(s.pool.Stats().Trimmed)
	})

	// Prefix-sharing index (all zero when SharePrefix is off).
	prefix := func(get func(PrefixStats) float64) func() float64 {
		return func() float64 {
			if s.prefixes == nil {
				return 0
			}
			return get(s.prefixes.Stats())
		}
	}
	reg.GaugeFunc("topick_prefix_entries", "Cached prefix chunk entries.", "",
		prefix(func(ps PrefixStats) float64 { return float64(ps.Entries) }))
	reg.CounterFunc("topick_prefix_evicted_total", "Prefix chunk entries dropped (index budget, pool pressure or Close).", "",
		prefix(func(ps PrefixStats) float64 { return float64(ps.Evicted) }))
	reg.CounterFunc("topick_prefix_lookups_total", "Admission-time prefix probes.", "",
		prefix(func(ps PrefixStats) float64 { return float64(ps.Lookups) }))
	reg.CounterFunc("topick_prefix_hits_total", "Prefix probes that adopted at least one row.", "",
		prefix(func(ps PrefixStats) float64 { return float64(ps.Hits) }))
	reg.GaugeFunc("topick_prefix_hit_ratio", "Prefix-index hit rate over probes (0-1).", "",
		prefix(func(ps PrefixStats) float64 { return ps.HitRate() }))

	// The process-wide shared pool (all zero on one CPU).
	execTotal := func(get func(exec.SlotStats) float64) func() float64 {
		return func() float64 { return get(exec.StatsOf(exec.Shared())) }
	}
	reg.CounterFunc("topick_exec_tasks_total", "Step tasks run by the process-wide shared pool.", "",
		execTotal(func(st exec.SlotStats) float64 { return float64(st.Tasks) }))
	reg.CounterFunc("topick_exec_steals_total", "Step tasks the process-wide shared pool stole from another slot's span.", "",
		execTotal(func(st exec.SlotStats) float64 { return float64(st.Steals) }))
	reg.CounterFunc("topick_exec_busy_seconds_total", "Cumulative busy time across the process-wide shared pool's slots.", "",
		execTotal(func(st exec.SlotStats) float64 { return float64(st.BusyNs) / 1e9 }))
	return m
}
