package serve

import (
	"errors"
	"time"

	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
)

// run is one runner's scheduling loop: pop up to MaxBatchTokens rows of
// runnable sessions, advance them in one engine step, fold the kernel's
// transfer statistics into the fleet report, repeat until the scheduler
// closes. The kernel, head executor and engine are this goroutine's alone;
// sessions borrow them for the duration of an iteration (per-session state —
// the KV caches and their quantized side-cars — travels with the session's
// decoder, so the hand-off is safe).
func (s *Server) run(wid int) {
	defer s.wg.Done()
	r := &runner{s: s, wid: wid, eng: model.NewBatchEngine(s.params), ex: s.execs[wid]}
	if s.cfg.NewKernel != nil {
		r.kernel = s.cfg.NewKernel()
	}
	var batch []*session
	for {
		batch = s.sched.popBatch(batch[:0], s.cfg.MaxBatchTokens, s.cfg.PromptChunk)
		if batch == nil {
			return
		}
		r.iterate(batch)
		if sk, ok := r.kernel.(statKernel); ok {
			delta := sk.Stats()
			sk.ResetStats()
			s.mu.Lock()
			s.agg.Add(delta)
			s.mu.Unlock()
		}
		s.sched.endBatch(len(batch))
	}
}

// runner owns one scheduling loop's compute resources and iteration scratch:
// entry and owner slices are reused across iterations so the steady-state
// decode path allocates nothing.
type runner struct {
	s       *Server
	wid     int // shard of the worker-sharded counters
	eng     *model.BatchEngine
	kernel  model.Kernel
	ex      exec.Executor
	entries []model.BatchEntry
	owners  []*session
}

// iterate advances every session in batch by one iteration: decode and
// replay sessions by one token row, speculating sessions by one verify pass,
// prefilling sessions by one prompt chunk.
// Sessions that neither finished nor parked are pushed back onto the run
// queue, behind whatever arrived while the iteration ran.
func (r *runner) iterate(batch []*session) {
	s := r.s
	r.entries = r.entries[:0]
	r.owners = r.owners[:0]

	// Pre-step bookkeeping: resume trace (recorded before anything else can
	// happen to the session, cancellation included, so every park in the
	// trace is matched), first-iteration accounting, cancellation. Survivors
	// are compacted in place; canceled sessions finish here and take no part
	// in the step.
	live := batch[:0]
	for _, sess := range batch {
		if sess.parked {
			sess.parked = false
			s.trace(sess, obs.KindResume, int32(sess.generated), 0, 0, 0)
		}
		if !sess.started {
			sess.started = true
			s.met.QueueWait.Observe(time.Since(sess.submitted).Seconds())
			s.trace(sess, obs.KindAdmitted, 0, 0, 0, 0)
		}
		if err := sess.ctx.Err(); err != nil {
			s.finish(sess, Result{Reason: ReasonCanceled, Err: err})
			continue
		}
		live = append(live, sess)
	}

	// Build the iteration's entries: decode and replay rows first, prefill
	// chunks after — the contiguous two-phase layout BatchEngine requires.
	// Every entry's token slice is a view into session-owned storage, so
	// assembly allocates nothing once the entry slice has grown.
	for _, sess := range live {
		if sess.promptPos < len(sess.req.Prompt) {
			continue
		}
		if sess.replayPos < sess.replayEnd {
			// Preemption replay: re-consume an already-emitted token through
			// the generation kernel — the same compute path that produced it,
			// so the KV rows rebuild bit-identically — without emitting.
			r.entries = append(r.entries, model.BatchEntry{
				Dec:    sess.dec,
				Tokens: sess.gen()[sess.replayPos : sess.replayPos+1],
			})
		} else if sess.spec != nil {
			// Speculative verify entry: the pending token plus up to k drafts
			// advance together; acceptance and rollback happen after the step.
			// The emitter is armed here because FinishEntry needs the
			// pre-entry length and drafting must happen exactly once per pass.
			n0 := sess.dec.Len()
			toks := sess.spec.BeginEntry(sess.penCtx, sess.maxTokens-sess.generated-1)
			if m := len(toks) - 1; m > 0 {
				s.trace(sess, obs.KindDraftStep, int32(sess.generated), int32(m), int32(n0), 0)
			}
			sess.specEmit = specEmitter{s: s, sess: sess, wid: r.wid, rows: n0}
			r.entries = append(r.entries, model.BatchEntry{
				Dec:        sess.dec,
				Tokens:     toks,
				NeedLogits: true,
				Verify:     true,
			})
		} else {
			// penCtx's tail is sess.next: the pending token advance queued.
			r.entries = append(r.entries, model.BatchEntry{
				Dec:        sess.dec,
				Tokens:     sess.penCtx[len(sess.penCtx)-1:],
				NeedLogits: true,
			})
		}
		r.owners = append(r.owners, sess)
	}
	for _, sess := range live {
		if sess.promptPos >= len(sess.req.Prompt) {
			continue
		}
		if sess.promptPos == 0 && sess.adopted == 0 && s.prefixes != nil {
			// The admission-time probe missed, but the index may have filled
			// while this session sat queued (a same-prefix session published):
			// re-probe at the last moment before prefill work begins. Reset
			// first — a failed acquisition on an earlier attempt may have left
			// stray leases, and adoption needs the caches empty.
			sess.dec.Reset()
			s.adoptPrefix(sess, false)
		}
		// The chunk is clamped to the context window as well as the prompt, so
		// an over-long prompt's rows that fit are consumed and accounted
		// before the session finishes context_full.
		end := min(sess.promptPos+s.cfg.PromptChunk, len(sess.req.Prompt))
		if window := s.params.Cfg.MaxSeq; sess.promptPos < window {
			end = min(end, window)
		}
		r.entries = append(r.entries, model.BatchEntry{
			Dec:     sess.dec,
			Tokens:  sess.req.Prompt[sess.promptPos:end],
			Prefill: true,
			// A session rebuilding after preemption sampled its pending
			// tokens long ago; only a first-time prefill samples here.
			NeedLogits: end == len(sess.req.Prompt) && sess.generated == 0,
		})
		r.owners = append(r.owners, sess)
	}
	if len(r.entries) == 0 {
		return
	}

	start := time.Now()
	r.eng.Step(r.entries, r.kernel, r.ex)
	elapsed := time.Since(start).Seconds()
	s.met.BatchIteration.Observe(elapsed)
	s.met.BatchIterations.Inc()
	// Each entry that advanced books its row share of the iteration into the
	// per-step histograms: the whole step when it ran alone.
	rows := 0
	for i := range r.entries {
		if r.entries[i].Err == nil {
			rows += len(r.entries[i].Tokens)
		}
	}

	// Post-process in entry order; token counters are published once per
	// iteration so the hot path takes the global mutex once.
	var stepped, replayed, prompted int64
	laddered := false
	for i := range r.entries {
		ent := &r.entries[i]
		sess := r.owners[i]
		if ent.Err != nil {
			// The entry consumed nothing. Pool exhaustion hits every entry of
			// the iteration at once, so only the first such entry walks the
			// reclamation ladder — whatever it freed (an evicted prefix, a
			// stolen victim, its own blocks) is exactly what the rest should
			// retry on. Walking the ladder per entry would act on stale
			// pressure and cascade into mass self-preemption or rejection.
			if errors.Is(ent.Err, ErrNoBlocks) && laddered {
				s.sched.push(sess)
				continue
			}
			if errors.Is(ent.Err, ErrNoBlocks) {
				laddered = true
			}
			if !s.storageErr(sess, ent.Err) {
				s.sched.push(sess)
			}
			continue
		}
		share := elapsed * float64(len(ent.Tokens)) / float64(rows)
		if ent.Prefill {
			consumed := len(ent.Tokens)
			sess.promptPos = sess.dec.Len()
			prompted += int64(consumed)
			s.met.PrefillChunk.Observe(share)
			s.met.PromptTokens.AddSlot(r.wid, int64(consumed))
			s.trace(sess, obs.KindPrefillChunk, int32(sess.generated), int32(consumed), int32(sess.promptPos), 0)
			if sess.promptPos == len(sess.req.Prompt) {
				if s.prefixes != nil {
					s.prefixes.publish(sess.dec, sess.req.Prompt)
				}
				if sess.generated == 0 {
					if s.advance(sess, ent.Logits, r.wid) {
						continue
					}
				}
			}
			s.sched.push(sess)
			continue
		}
		s.met.DecodeStep.Observe(share)
		if !ent.NeedLogits { // replay row
			sess.replayPos++
			sess.recomputed++
			replayed++
			s.met.Recomputed.AddSlot(r.wid, 1)
			s.trace(sess, obs.KindReplayStep, int32(sess.generated), 0, int32(sess.dec.Len()), 0)
			s.sched.push(sess)
			continue
		}
		if ent.Verify {
			// Speculative pass: apply the acceptance rule, roll back, and
			// route the deferred terminal condition through finish — after
			// rollback, never inside the emitter: finish releases the KV caches
			// the rollback still touches.
			res := sess.spec.FinishEntry(ent, &sess.specEmit)
			s.finishSpecPass(sess, res)
			stepped += int64(res.Emitted)
			if sess.specEmit.done {
				s.finish(sess, sess.specEmit.res)
				continue
			}
			s.sched.push(sess)
			continue
		}
		stepped++
		// Traced before advance: advance may finish the session, and finish
		// must stay its last trace event.
		s.trace(sess, obs.KindDecodeStep, int32(sess.generated+1), 1, int32(sess.dec.Len()), 0)
		if s.advance(sess, ent.Logits, r.wid) {
			continue
		}
		s.sched.push(sess)
	}
	// Batch-shape metrics count rows that actually advanced: an entry that
	// failed its block lease occupied an assembly slot but consumed no
	// tokens, and the row counters must keep reconciling with the usage
	// counters (decode+replay rows == generated-1+recomputed per clean
	// session, prefill rows == prompt tokens prefilled).
	if advanced := stepped + replayed + prompted; advanced > 0 {
		s.met.BatchRows.Observe(float64(advanced))
		s.met.BatchDecodeRows.Add(stepped + replayed)
		s.met.BatchPrefillRows.Add(prompted)
		s.mu.Lock()
		s.genToks += stepped
		s.recompute += replayed
		s.prompted += prompted
		s.mu.Unlock()
	}
}
