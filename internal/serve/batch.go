package serve

import (
	"sync/atomic"
	"time"

	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
)

// stepping counts the runners of the whole process — every Server, so every
// fleet replica — that are inside an iteration. The shared executor is one
// pool per process, so only a runner that is alone mid-iteration steps on it;
// one that finds another runner busy steps serially, because fanning out
// there would only compete with that runner for the same cores.
var stepping atomic.Int32

// run is one runner's scheduling loop: pop a runnable session, advance it by
// one engine step, fold the kernel's transfer statistics into the fleet
// report, repeat until the scheduler closes. The kernel and engine are this
// goroutine's alone; sessions borrow them for the duration of an iteration
// (per-session state — the KV caches and their quantized side-cars — travels
// with the session's decoder, so the hand-off is safe). Tokens are
// bit-identical on either executor.
func (s *Server) run(wid int) {
	defer s.wg.Done()
	r := &runner{s: s, wid: wid, eng: model.NewBatchEngine(s.params)}
	if s.cfg.NewKernel != nil {
		r.kernel = s.cfg.NewKernel()
	}
	shared := exec.Shared()
	for {
		sess := s.sched.pop()
		if sess == nil {
			return
		}
		ex := shared
		if stepping.Add(1) > 1 {
			ex = exec.Serial{}
		}
		r.iterate(sess, ex)
		stepping.Add(-1)
		if sk, ok := r.kernel.(statKernel); ok {
			delta := sk.Stats()
			sk.ResetStats()
			s.mu.Lock()
			s.agg.Add(delta)
			s.mu.Unlock()
		}
		s.sched.end()
	}
}

// runner owns one scheduling loop's compute resources and its one-entry
// step, reused across iterations so the steady-state decode path allocates
// nothing.
type runner struct {
	s      *Server
	wid    int // shard of the worker-sharded counters
	eng    *model.BatchEngine
	kernel model.Kernel
	entry  [1]model.BatchEntry
}

// iterate advances sess by one iteration: a decode or replay session by one
// token row, a speculating session by one verify pass, a prefilling session
// by one prompt chunk. The engine step runs on ex. A session that neither
// finished nor parked is pushed back onto the run queue, behind whatever
// arrived while the iteration ran.
func (r *runner) iterate(sess *session, ex exec.Executor) {
	s := r.s
	// Pre-step bookkeeping: resume trace (recorded before anything else can
	// happen to the session, cancellation included, so every park in the
	// trace is matched), first-iteration accounting, cancellation.
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
		return
	}

	// Build the step's one entry. Its token slice is a view into
	// session-owned storage, so assembly allocates nothing. A speculating
	// session's replay rows are plain one-token rows; only the case that
	// drafts makes a verify pass.
	ent := &r.entry[0]
	verify := false
	switch {
	case sess.promptPos < len(sess.req.Prompt):
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
		end := min(sess.promptPos+model.PromptChunk, len(sess.req.Prompt))
		if window := s.params.Cfg.MaxSeq; sess.promptPos < window {
			end = min(end, window)
		}
		*ent = model.BatchEntry{
			Dec:     sess.dec,
			Tokens:  sess.req.Prompt[sess.promptPos:end],
			Prefill: true,
			// A session rebuilding after preemption sampled its pending
			// tokens long ago; only a first-time prefill samples here.
			NeedLogits: end == len(sess.req.Prompt) && sess.generated == 0,
		}
	case sess.replayPos < sess.replayEnd:
		// Preemption replay: re-consume an already-emitted token through
		// the generation kernel — the same compute path that produced it,
		// so the KV rows rebuild bit-identically — without emitting.
		*ent = model.BatchEntry{
			Dec:    sess.dec,
			Tokens: sess.gen()[sess.replayPos : sess.replayPos+1],
		}
	case sess.spec != nil:
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
		*ent = model.BatchEntry{Dec: sess.dec, Tokens: toks, NeedLogits: true}
		verify = true
	default:
		// penCtx's tail is sess.next: the pending token advance queued.
		*ent = model.BatchEntry{
			Dec:        sess.dec,
			Tokens:     sess.penCtx[len(sess.penCtx)-1:],
			NeedLogits: true,
		}
	}

	start := time.Now()
	r.eng.Step(r.entry[:], r.kernel, ex)
	elapsed := time.Since(start).Seconds()
	s.met.BatchIteration.Observe(elapsed)
	s.met.BatchIterations.Inc()
	if ent.Err != nil {
		// The entry consumed nothing: retry, preempt or finish by the
		// storage policy.
		if !s.storageErr(sess, ent.Err) {
			s.sched.push(sess)
		}
		return
	}

	// A row's token counters are booked before advance or finish can close
	// its session's stream, so a client that has read its last token finds
	// it counted. The batch-shape counters reconcile with the usage
	// counters: decode+replay rows == generated-1+recomputed per clean
	// session, prefill rows == prompt tokens prefilled.
	if ent.Prefill {
		rows := int64(len(ent.Tokens))
		sess.promptPos = sess.dec.Len()
		s.met.PrefillChunk.Observe(elapsed)
		s.met.PromptTokens.AddSlot(r.wid, rows)
		s.met.BatchRows.Observe(float64(rows))
		s.met.BatchPrefillRows.Add(rows)
		s.trace(sess, obs.KindPrefillChunk, int32(sess.generated), int32(rows), int32(sess.promptPos), 0)
		if sess.promptPos == len(sess.req.Prompt) {
			if s.prefixes != nil {
				s.prefixes.publish(sess.dec, sess.req.Prompt)
			}
			if sess.generated == 0 && s.advance(sess, ent.Logits, r.wid) {
				return
			}
		}
		s.sched.push(sess)
		return
	}
	s.met.DecodeStep.Observe(elapsed)
	if verify {
		// Speculative pass: apply the acceptance rule, roll back, and
		// route the deferred terminal condition through finish — after
		// rollback, never inside the emitter: finish releases the KV caches
		// the rollback still touches.
		res := sess.spec.FinishEntry(ent, &sess.specEmit)
		s.finishSpecPass(sess, res)
		s.genToks.Add(int64(res.Emitted))
		s.met.BatchRows.Observe(float64(res.Emitted))
		s.met.BatchDecodeRows.Add(int64(res.Emitted))
		if sess.specEmit.done {
			s.finish(sess, sess.specEmit.res)
			return
		}
		s.sched.push(sess)
		return
	}
	s.met.BatchRows.Observe(1)
	s.met.BatchDecodeRows.Add(1)
	if !ent.NeedLogits { // replay row
		sess.replayPos++
		sess.recomputed++
		s.met.Recomputed.AddSlot(r.wid, 1)
		s.trace(sess, obs.KindReplayStep, int32(sess.generated), 0, int32(sess.dec.Len()), 0)
		s.sched.push(sess)
		return
	}
	s.genToks.Add(1)
	// Traced before advance: advance may finish the session, and finish
	// must stay its last trace event.
	s.trace(sess, obs.KindDecodeStep, int32(sess.generated+1), 1, int32(sess.dec.Len()), 0)
	if s.advance(sess, ent.Logits, r.wid) {
		return
	}
	s.sched.push(sess)
}
