package main

import (
	"context"
	"fmt"
	"time"

	"tokenpicker/internal/serve"
)

// burstLoad is burst_mixed: an offline batch driven in-process by one
// goroutine. A wave submits its requests back-to-back — unique prompts, so
// prefix sharing is bypassed, in shapes from prefill-heavy to decode-heavy —
// then drains every stream (events are buffered for the whole response, so
// the timings are the engine's own Event.Elapsed and Result values) and only
// then starts the next wave.
type burstLoad struct {
	e       *env
	waves   [][]genReq
	warm    []genReq
	libSeqs [][]int

	tr      *tracing
	eng     *engine
	outputs map[int][]int // by wave*len(wave)+index
}

func newBurstLoad(e *env) *burstLoad {
	sz := e.sz
	w := &burstLoad{e: e}
	perWave := 0
	for _, s := range sz.shapes {
		perWave += s[0] * sz.waveReps
	}
	libPrompt := sz.shapes[len(sz.shapes)/2][0]
	libLen := libPrompt + libSteps + 1
	text, _ := e.text((sz.waves+1)*perWave + libSeqs*libLen)
	take := func(n int) []int {
		t := text[:n]
		text = text[n:]
		return t
	}
	wave := func(reps int) []genReq {
		var reqs []genReq
		for r := 0; r < reps; r++ {
			for _, s := range sz.shapes {
				reqs = append(reqs, genReq{prompt: take(s[0]), maxTokens: s[1]})
			}
		}
		return reqs
	}
	w.warm = wave(1)
	for i := 0; i < sz.waves; i++ {
		w.waves = append(w.waves, wave(sz.waveReps))
	}
	for i := 0; i < libSeqs; i++ {
		w.libSeqs = append(w.libSeqs, take(libLen))
	}
	return w
}

func (w *burstLoad) profile() (int, int, [][]int) {
	return len(w.libSeqs[0]) - libSteps - 1, libSteps, w.libSeqs
}

func (w *burstLoad) boot(tr *tracing) error {
	eng, err := bootEngine(w.e, tr)
	if err != nil {
		return err
	}
	w.eng, w.tr = eng, tr
	// Warm-up: one request of every shape, as one small wave.
	if _, failed := w.wave(w.warm, nil, -1); failed > 0 {
		eng.srv.Close()
		return fmt.Errorf("warm-up wave: %d of %d requests failed", failed, len(w.warm))
	}
	return nil
}

func (w *burstLoad) close() { w.eng.srv.Close() }

// wave submits reqs back-to-back, drains them in order and returns generated
// tokens and failures. Samples go to res when set; with key >= 0 the tokens of
// every checked request are kept under key+index.
func (w *burstLoad) wave(reqs []genReq, res *passResult, key int) (tokens, failed int) {
	streams := make([]*serve.Stream, len(reqs))
	for i, r := range reqs {
		st, err := w.eng.srv.Submit(context.Background(), serve.GenerateRequest{Prompt: r.prompt, MaxTokens: r.maxTokens})
		if err != nil {
			failed++
			continue
		}
		streams[i] = st
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for i, st := range streams {
		if st == nil {
			continue
		}
		toks, at, r := drain(st)
		w.eng.done(len(toks))
		tokens += len(toks)
		if r.Reason != serve.ReasonLength || r.Err != nil || len(toks) != reqs[i].maxTokens {
			failed++
			continue
		}
		if res == nil {
			continue
		}
		var worst time.Duration
		for j := 1; j < len(at); j++ {
			worst = max(worst, at[j]-at[j-1])
		}
		s := reqSample{ttft: ms(r.TTFT), stall: ms(worst), latency: ms(r.Elapsed)}
		if len(at) > 1 {
			s.tpot = ms(at[len(at)-1]-r.TTFT) / float64(len(at)-1)
		}
		res.reqs = append(res.reqs, s)
		if key >= 0 && i%w.e.sz.checkEvery == 0 {
			w.outputs[key+i] = toks
		}
	}
	return tokens, failed
}

func (w *burstLoad) pass(d time.Duration) *passResult {
	res := &passResult{}
	base, err := w.eng.snap(w.tr)
	if err != nil {
		res.failed++
	}
	w.eng.base = base
	w.outputs = map[int][]int{}
	start := time.Now()
	for wv := 0; wv < w.e.sz.waveCount || time.Since(start) < d; wv++ {
		reqs := w.waves[wv%len(w.waves)]
		key := -1 // checks cover the count window only
		if wv < w.e.sz.waveCount {
			key = wv * len(reqs)
		}
		t0 := time.Now()
		id := w.tr.recorder().begin("client.wave", 0, int32(wv+1))
		tokens, failed := w.wave(reqs, res, key)
		w.tr.recorder().end(id)
		res.batchTokS = append(res.batchTokS, float64(tokens)/time.Since(t0).Seconds())
		res.attempted += len(reqs)
		res.failed += failed
		if wv == w.e.sz.waveCount-1 {
			if now, err := w.eng.attn(); err != nil {
				res.failed++
			} else {
				res.counts = statsSince(now, base.attn)
			}
		}
	}
	res.wall = time.Since(start)
	return res
}

func (w *burstLoad) verify(res *passResult, out *result) float64 {
	checked := map[int]genReq{}
	per := len(w.waves[0])
	for wv := 0; wv < w.e.sz.waveCount; wv++ {
		for i := 0; i < per; i += w.e.sz.checkEvery {
			checked[wv*per+i] = w.waves[wv%len(w.waves)][i]
		}
	}
	return verifyServing(w.eng.params, w, checked, w.outputs, res, out)
}

func (w *burstLoad) layers(plain, traced *passResult, out *result) {
	w.eng.serveLayers(w.tr, traced, out)
}
