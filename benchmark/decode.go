package main

import (
	"math"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
)

// decodeLoad is the library-level workload behind decode_long and
// decode_short: one goroutine, one model.Decoder, sequences of an exact
// Prompt followed by teacher-forced Step calls through the token-picker
// kernel. Only the calls are timed; NLL is accumulated outside the timers.
type decodeLoad struct {
	e                          *env
	prompt, steps, count, nref int
	seqs                       [][]int // each prompt+steps+1 tokens

	params *model.Params
	dec    *model.Decoder
	kern   statKernel
	tk     *timedKernel // non-nil on a traced boot
	rec    *recorder
}

func newDecodeLoad(e *env, prompt, steps, nseq, count, nref int) *decodeLoad {
	w := &decodeLoad{e: e, prompt: prompt, steps: steps, count: count, nref: nref}
	n := prompt + steps + 1
	text, _ := e.text(nseq * n)
	for i := 0; i < nseq; i++ {
		w.seqs = append(w.seqs, text[i*n:(i+1)*n])
	}
	return w
}

func (w *decodeLoad) boot(tr *tracing) error {
	p, err := w.e.loadParams()
	if err != nil {
		return err
	}
	w.params, w.tk, w.rec = p, nil, nil
	w.kern = newGenKernel()
	if tr != nil {
		w.rec = tr.rec
		w.tk = &timedKernel{inner: w.kern}
		w.kern = w.tk
	}
	w.dec = model.NewDecoder(p, w.kern)
	// Warm-up: a shortened sequence faults in the kernel's scratch and the
	// cache growth path. The first timed sequence still grows buffers to
	// full length, a few allocations against thousands of steps.
	seq := w.seqs[len(w.seqs)-1]
	wp, ws := min(w.prompt, 256), min(w.steps, 128)
	if _, err := w.dec.Prompt(seq[:wp]); err != nil {
		return err
	}
	for i := 0; i < ws; i++ {
		if _, err := w.dec.Step(seq[wp+i]); err != nil {
			return err
		}
	}
	if w.tk != nil {
		w.tk.rec = tr.rec // spans from here on
	}
	return nil
}

func (w *decodeLoad) close() { w.dec.Release() }

func (w *decodeLoad) pass(d time.Duration) *passResult {
	res := &passResult{}
	w.kern.ResetStats()
	start := time.Now()
	for u := 0; u < w.count || time.Since(start) < d; u++ {
		res.attempted++
		if !w.unit(res, u) {
			res.failed++
		}
		if u == w.count-1 {
			res.counts = w.kern.Stats()
		}
	}
	res.wall = time.Since(start)
	return res
}

// unit runs sequence u and records what its caller saw.
func (w *decodeLoad) unit(res *passResult, u int) bool {
	seq := w.seqs[u%len(w.seqs)]
	req := int32(u + 1)
	w.dec.Reset()

	id := w.rec.begin("model.prompt", 0, req)
	t0 := time.Now()
	logits, err := w.dec.Prompt(seq[:w.prompt])
	pd := time.Since(t0)
	w.rec.end(id)
	if err != nil {
		return false
	}
	res.promptTok += w.prompt

	var total, worst time.Duration
	for i := 0; i < w.steps; i++ {
		id := w.rec.begin("model.step", 0, req)
		if w.tk != nil {
			w.tk.parent, w.tk.req = id, req
		}
		t0 := time.Now()
		logits, err = w.dec.Step(seq[w.prompt+i])
		sd := time.Since(t0)
		w.rec.end(id)
		if err != nil {
			return false
		}
		if u < w.nref {
			res.nll += nllOf(logits, seq[w.prompt+i+1])
			res.nllN++
		}
		total += sd
		worst = max(worst, sd)
		res.stepUS = append(res.stepUS, float64(sd)/1e3)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	res.reqs = append(res.reqs, reqSample{
		ttft:    ms(pd),
		tpot:    ms(total) / float64(w.steps),
		stall:   ms(worst),
		latency: ms(pd + total),
	})
	res.libTokS = append(res.libTokS, float64(w.steps)/total.Seconds())
	res.batchTokS = append(res.batchTokS, float64(w.steps)/(pd+total).Seconds())
	return true
}

// verify repeats the reference units with the quantized-exact kernel and
// returns the perplexity ratio.
func (w *decodeLoad) verify(res *passResult, out *result) float64 {
	cfg := w.params.Cfg
	if want := int64(w.count * w.steps * cfg.Layers * cfg.Heads); res.counts.Instances != want {
		out.fail("count window holds %d attention instances, want %d", res.counts.Instances, want)
	}
	exact, _, err := teacherForce(w.params, attention.NewQuantizedExact(), w.seqs[:w.nref], w.prompt, w.steps)
	if err != nil {
		out.fail("reference decode: %v", err)
	}
	return pplRatio(res.nll, exact, res.nllN, out)
}

func (w *decodeLoad) profile() (int, int, [][]int) { return w.prompt, w.steps, w.seqs }

// layers reads the model and attention layers off the traced pass's spans.
func (w *decodeLoad) layers(plain, traced *passResult, out *result) {
	spanLayers(w.rec, plain, traced, w.count*w.steps, out)
}

// spanLayers turns model.step / attention.attend_layer / model.prompt spans
// into the model and attention per-layer metrics. A step's self time is what
// the model layer spends outside attention, so self + attention is the traced
// step; it should match the step measured with spans off (plain) over the
// first windowSteps steps, which both passes run on the same units. A gap
// beyond 5% is printed: the two passes run minutes apart on a shared host, so
// it says the host drifted, not that an output is wrong.
func spanLayers(rec *recorder, plain, traced *passResult, windowSteps int, out *result) {
	tot := rec.totals()
	step, attn, prompt := tot["model.step"], tot["attention.attend_layer"], tot["model.prompt"]
	if step == nil || attn == nil || prompt == nil {
		out.fail("traced pass recorded no model/attention spans")
		return
	}
	steps := float64(step.Count)
	out.set("model.step_p50_us", median(step.Durs), "us", step.Count)
	out.set("model.step_p95_us", quantile(step.Durs, 0.95), "us", step.Count)
	out.set("model.nonattn_us_per_step", float64(step.Self)/1e3/steps, "us", step.Count)
	out.set("model.prefill_us_per_token", ratio(float64(prompt.Total)/1e3, float64(traced.promptTok)), "us", traced.promptTok)
	out.set("attention.us_per_step", float64(attn.Total)/1e3/steps, "us", attn.Count)
	out.set("attention.busy_share", ratio(float64(attn.Total), float64(step.Total)), "share", attn.Count)

	n := min(windowSteps, len(plain.stepUS), len(step.Durs))
	measured, spans := sum(plain.stepUS[:n])/float64(n), sum(step.Durs[:n])/float64(n)
	if d := math.Abs(spans-measured) / measured; d > 0.05 {
		out.note("nonattn + attention = %.1f us per step, measured step %.1f us: off by %.1f%%", spans, measured, 100*d)
	}
}
