package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/serve"
)

// genReq is one generated request. Greedy sampling everywhere, so the
// engine's output is a function of the prompt alone.
type genReq struct {
	prompt    []int
	maxTokens int
	adopt     int // leading tokens shared with the other requests of its group
	group     int // requests of one group share prompt[:adopt] (a system prompt)
}

// engine is the serving stack both serving workloads boot: the server with
// exactly the configuration topick-serve ships — prefix sharing on, the
// token-picker kernel, every other field at its default (worker dispatch,
// NumCPU workers, unbounded pool).
type engine struct {
	params *model.Params
	srv    *serve.Server
	tracer *obs.Tracer
	// steps counts the generation steps of every request completed so far:
	// the engine folds a worker's kernel statistics into its report just
	// after the stream closes, so readers wait until the report has caught
	// up with this count.
	steps atomic.Int64
	base  serveSnap // at the start of the current pass
}

func bootEngine(e *env, tr *tracing) (*engine, error) {
	p, err := e.loadParams()
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{SharePrefix: true, NewKernel: func() model.Kernel { return newGenKernel() }}
	eng := &engine{params: p}
	if tr != nil {
		cfg.NewKernel = tr.kernels.newKernel
		eng.tracer = obs.NewTracer(1 << 16)
		cfg.Tracer = eng.tracer
	}
	eng.srv = serve.NewServer(p, cfg)
	return eng, nil
}

func drain(st *serve.Stream) ([]int, []time.Duration, serve.Result) {
	var toks []int
	var at []time.Duration
	for ev := range st.Events() {
		toks = append(toks, ev.Token)
		at = append(at, ev.Elapsed)
	}
	return toks, at, st.Result()
}

// done books a completed request's generation steps (the first token comes
// from the prompt's logits, so n tokens are n-1 steps).
func (g *engine) done(tokens int) {
	if tokens > 1 {
		g.steps.Add(int64(tokens - 1))
	}
}

// attn returns the engine's cumulative kernel statistics once they cover
// every completed request.
func (g *engine) attn() (attention.Stats, error) {
	cfg := g.params.Cfg
	want := g.steps.Load() * int64(cfg.Layers*cfg.Heads)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := g.srv.Report().Attn
		if st.Instances == want {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("engine reports %d attention instances, completed requests account for %d", st.Instances, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// statsSince returns now minus base.
func statsSince(now, base attention.Stats) attention.Stats {
	d := attention.Stats{
		Instances:      now.Instances - base.Instances,
		Tokens:         now.Tokens - base.Tokens,
		Kept:           now.Kept - base.Kept,
		KBytes:         now.KBytes - base.KBytes,
		VBytes:         now.VBytes - base.VBytes,
		BaselineKBytes: now.BaselineKBytes - base.BaselineKBytes,
		BaselineVBytes: now.BaselineVBytes - base.BaselineVBytes,
		ChunkFetches:   append([]int64(nil), now.ChunkFetches...),
	}
	for i, v := range base.ChunkFetches {
		d.ChunkFetches[i] -= v
	}
	return d
}

// serveSnap is the part of the engine's own accounting whose growth over a
// pass the serve metrics are computed from, so warm-up traffic is excluded.
type serveSnap struct {
	attn                                 attention.Stats
	ttftSum, stepSum, chunkSum           float64
	ttftN, stepN, chunkN                 int64
	lookups, hits, rowsReused, promptTok int64
	leases, allocated, copies, preempted int64
	attnNS, attnCalls                    int64
}

func (g *engine) snap(tr *tracing) (serveSnap, error) {
	a, err := g.attn()
	m, r := g.srv.Metrics(), g.srv.Report()
	s := serveSnap{
		attn:    a,
		ttftSum: m.TTFT.Sum(), ttftN: m.TTFT.Count(),
		stepSum: m.DecodeStep.Sum(), stepN: m.DecodeStep.Count(),
		chunkSum: m.PrefillChunk.Sum(), chunkN: m.PrefillChunk.Count(),
		lookups: r.Prefix.Lookups, hits: r.Prefix.Hits, rowsReused: r.Prefix.RowsReused,
		promptTok: r.PromptTokens,
		leases:    r.Pool.Leases, allocated: r.Pool.Allocated, copies: r.Pool.Copies,
		preempted: r.Preempted,
	}
	if tr != nil {
		s.attnNS, s.attnCalls = tr.kernels.totals()
	}
	return s, err
}

// serveLayers reads the serve, model and attention layers of a serving
// workload off the engine's own histograms and report (what /metrics and
// /v1/stats render), as growth since the pass began. Histogram quantiles
// cannot be differenced, so those include the few warm-up requests.
func (g *engine) serveLayers(tr *tracing, traced *passResult, out *result) {
	now, err := g.snap(tr)
	if err != nil {
		out.fail("%v", err)
	}
	b := g.base
	m, r := g.srv.Metrics(), g.srv.Report()
	ms := func(sec float64) float64 { return sec * 1e3 }
	n := int(now.ttftN - b.ttftN)
	stepSec, stepN := now.stepSum-b.stepSum, float64(now.stepN-b.stepN)
	chunkSec := now.chunkSum - b.chunkSum

	out.set("serve.queue_wait_p50_ms", ms(m.QueueWait.Quantile(0.5)), "ms", int(m.QueueWait.Count()))
	out.set("serve.queue_wait_p95_ms", ms(m.QueueWait.Quantile(0.95)), "ms", int(m.QueueWait.Count()))
	out.set("serve.ttft_p50_ms", ms(m.TTFT.Quantile(0.5)), "ms", int(m.TTFT.Count()))
	out.set("serve.engine_ttft_mean_ms", ms(ratio(now.ttftSum-b.ttftSum, float64(n))), "ms", n)
	out.set("serve.decode_step_mean_ms", ms(ratio(stepSec, stepN)), "ms", int(stepN))
	out.set("serve.prefill_chunk_mean_ms", ms(ratio(chunkSec, float64(now.chunkN-b.chunkN))), "ms", int(now.chunkN-b.chunkN))
	out.set("serve.worker_busy_share", ratio(stepSec+chunkSec, traced.wall.Seconds()*float64(runtime.NumCPU())), "share", int(stepN))
	out.set("serve.prefix_hit_ratio", ratio(float64(now.hits-b.hits), float64(now.lookups-b.lookups)), "share", int(now.lookups-b.lookups))
	adopted, prefilled := float64(now.rowsReused-b.rowsReused), float64(now.promptTok-b.promptTok)
	out.set("serve.prefix_rows_adopted_share", ratio(adopted, adopted+prefilled), "share", int(adopted+prefilled))
	out.set("serve.pool_peak_blocks", float64(r.Pool.Peak), "count", 1)
	out.set("serve.pool_recycle_ratio", ratio(float64((now.leases-b.leases)-(now.allocated-b.allocated)), float64(now.leases-b.leases)), "share", int(now.leases-b.leases))
	out.set("serve.pool_cow_copies", float64(now.copies-b.copies), "count", 1)
	out.set("serve.preemptions", float64(now.preempted-b.preempted), "count", 1)
	out.set("serve.peak_concurrent", float64(r.PeakConcurrent), "count", 1)

	// The step the engine times is the model layer's Decoder.Step; the
	// wrapper kernels time the attention inside it.
	layers := float64(g.params.Cfg.Layers)
	attnSec := float64(now.attnNS-b.attnNS) / 1e9
	attnSteps := float64(now.attnCalls-b.attnCalls) / layers
	stepUS, attnUS := ratio(stepSec, stepN)*1e6, ratio(attnSec, attnSteps)*1e6
	out.set("model.step_p50_us", m.DecodeStep.Quantile(0.5)*1e6, "us", int(m.DecodeStep.Count()))
	out.set("model.step_p95_us", m.DecodeStep.Quantile(0.95)*1e6, "us", int(m.DecodeStep.Count()))
	out.set("model.nonattn_us_per_step", stepUS-attnUS, "us", int(stepN))
	out.set("model.prefill_us_per_token", ratio(chunkSec*1e6, prefilled), "us", int(prefilled))
	out.set("attention.us_per_step", attnUS, "us", int(attnSteps))
	out.set("attention.busy_share", ratio(attnSec, stepSec), "share", int(attnSteps))
	if math.Abs(attnSteps-stepN) > 0 {
		out.fail("wrapper kernels saw %v generation steps, the engine timed %v", attnSteps, stepN)
	}
	if g.tracer != nil {
		out.set("obs.events_per_request", ratio(float64(g.tracer.Total()), float64(r.Admitted)), "count", int(r.Admitted))
	}
}

// replay drives reqs through submit with c closed-loop callers and returns
// generated tokens per second.
func replay(submit func(serve.GenerateRequest) (*serve.Stream, error), reqs []genReq, c int) (float64, error) {
	var (
		mu     sync.Mutex
		tokens int
		first  error
		wg     sync.WaitGroup
	)
	next := make(chan genReq)
	t0 := time.Now()
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range next {
				st, err := submit(serve.GenerateRequest{Prompt: req.prompt, MaxTokens: req.maxTokens})
				n := 0
				if err == nil {
					toks, _, res := drain(st)
					n = len(toks)
					if res.Reason != serve.ReasonLength {
						err = fmt.Errorf("finish reason %q", res.Reason)
					}
				}
				mu.Lock()
				tokens += n
				if err != nil && first == nil {
					first = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, r := range reqs {
		next <- r
	}
	close(next)
	wg.Wait()
	return float64(tokens) / time.Since(t0).Seconds(), first
}

// teacherForce decodes seqs with kern (prompt exact, then steps
// teacher-forced Step calls) and returns the summed NLL of the steps'
// predictions and, per sequence, Step calls per second of Step time.
func teacherForce(p *model.Params, kern model.Kernel, seqs [][]int, prompt, steps int) (nll float64, tokS []float64, err error) {
	dec := model.NewDecoder(p, kern)
	defer dec.Release()
	for _, seq := range seqs {
		dec.Reset()
		if _, err := dec.Prompt(seq[:prompt]); err != nil {
			return 0, nil, err
		}
		var total time.Duration
		for i := 0; i < steps; i++ {
			t0 := time.Now()
			logits, err := dec.Step(seq[prompt+i])
			total += time.Since(t0)
			if err != nil {
				return 0, nil, err
			}
			nll += nllOf(logits, seq[prompt+i+1])
		}
		tokS = append(tokS, float64(steps)/total.Seconds())
	}
	return nll, tokS, nil
}

// pplRatio is perplexity(token-picker) / perplexity(quantized-exact) given
// both kernels' summed NLL over the same n tokens: the quantized-exact kernel
// does the same 12-bit arithmetic without pruning, so the ratio isolates the
// pruning. A ratio that is not a number or above 1.10 fails the result.
func pplRatio(nllPicker, nllExact float64, n int, out *result) float64 {
	r := math.Exp((nllPicker - nllExact) / float64(n))
	if math.IsNaN(r) || r > 1.10 {
		out.fail("perplexity ratio %v: the pruning kernel's outputs are off", r)
	}
	return r
}

// verifyServing is the serving workloads' library-level work after the timed
// pass: quality and single-goroutine decode speed on sequences shaped like
// the requests, and a serial re-decode of the checked requests with the same
// kernel, which must give the same tokens.
func verifyServing(p *model.Params, w workload, checked map[int]genReq, outputs map[int][]int, res *passResult, out *result) float64 {
	prompt, steps, seqs := w.profile()
	picker, tokS, err := teacherForce(p, newGenKernel(), seqs, prompt, steps)
	if err != nil {
		out.fail("library decode: %v", err)
	}
	exact, _, err := teacherForce(p, attention.NewQuantizedExact(), seqs, prompt, steps)
	if err != nil {
		out.fail("library reference decode: %v", err)
	}
	res.nllN, res.libTokS = len(seqs)*steps, tokS
	r := pplRatio(picker, exact, res.nllN, out)

	dec := model.NewDecoder(p, newGenKernel())
	defer dec.Release()
	// Group by shared prefix so each system prompt is prefilled once.
	order := make([]int, 0, len(checked))
	for i := range checked {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := checked[order[a]].group, checked[order[b]].group
		return ga < gb || ga == gb && order[a] < order[b]
	})
	group := -1 // whose prefix dec currently holds
	for _, i := range order {
		req := checked[i]
		adopt := req.adopt
		if req.group != group {
			adopt = 0
		}
		want, err := referenceDecode(dec, req.prompt, adopt, req.maxTokens)
		if err != nil {
			out.fail("reference decode of request %d: %v", i, err)
			continue
		}
		group = req.group
		if got, ok := outputs[i]; !ok || !slices.Equal(got, want) {
			out.fail("request %d: tokens differ from the serial decoder's", i)
		}
	}
	return r
}
