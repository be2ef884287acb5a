package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tokenpicker/internal/fleet"
	"tokenpicker/internal/httpapi"
	"tokenpicker/internal/model"
	"tokenpicker/internal/serve"
)

// httpLoad is http_shared: C closed-loop clients stream completions from a
// live loopback listener. Every prompt is one of a few system prompts plus a
// unique suffix, so admission adopts the cached prefix and decode runs at a
// context of a few hundred tokens.
type httpLoad struct {
	e       *env
	reqs    []genReq
	bodies  [][]byte // the requests as JSON, marshalled once
	warm    []genReq // one per system prompt first, so every timed request finds its prefix cached
	libSeqs [][]int  // library sequences shaped like the requests (profile)

	tr      *tracing
	eng     *engine
	hs      *http.Server
	served  chan struct{}
	url     string
	clients []*http.Client
	non2xx  atomic.Int64

	outputs map[int][]int
	gapsMS  []float64 // raw gaps between token chunks at the client, last pass
}

// A serving workload's library profile is libSeqs sequences that run
// libSteps teacher-forced steps past a prompt shaped like its requests'.
const (
	libSeqs  = 8
	libSteps = 64
)

func newHTTPLoad(e *env) *httpLoad {
	sz := e.sz
	w := &httpLoad{e: e}
	nWarm := sz.sysPrompts + sz.httpWarm
	libLen := sz.sufMax + libSteps + 1
	text, rng := e.text(sz.sysPrompts*sz.sysLen + libSeqs*libLen + (sz.httpReqs+nWarm)*sz.sufMax)
	take := func(n int) []int {
		t := text[:n]
		text = text[n:]
		return t
	}
	sys := make([][]int, sz.sysPrompts)
	for i := range sys {
		sys[i] = take(sz.sysLen)
	}
	mk := func(i, s int) genReq {
		suffix := take(sz.sufMin + rng.Intn(sz.sufMax-sz.sufMin+1))
		return genReq{
			prompt:    append(append([]int(nil), sys[s]...), suffix...),
			maxTokens: sz.maxTokens[i%len(sz.maxTokens)],
			adopt:     sz.sysLen,
			group:     s,
		}
	}
	for i := 0; i < nWarm; i++ {
		w.warm = append(w.warm, mk(i, i%sz.sysPrompts))
	}
	for i := 0; i < sz.httpReqs; i++ {
		r := mk(i, rng.Intn(sz.sysPrompts))
		w.reqs = append(w.reqs, r)
		w.bodies = append(w.bodies, r.body())
	}
	for i := 0; i < libSeqs; i++ {
		w.libSeqs = append(w.libSeqs, append(append([]int(nil), sys[i%len(sys)]...), take(libLen)...))
	}
	return w
}

// body is the request as a streaming /v1/completions JSON body.
func (r genReq) body() []byte {
	b, err := json.Marshal(map[string]any{"prompt": r.prompt, "max_tokens": r.maxTokens, "stream": true})
	if err != nil {
		panic(err) // ints and a bool always marshal
	}
	return b
}

func (w *httpLoad) profile() (int, int, [][]int) {
	return w.e.sz.sysLen + w.e.sz.sufMax, libSteps, w.libSeqs
}

func (w *httpLoad) boot(tr *tracing) error {
	eng, err := bootEngine(w.e, tr)
	if err != nil {
		return err
	}
	w.eng, w.tr = eng, tr
	var handler http.Handler = httpapi.New(eng.srv, httpapi.Options{})
	if tr != nil {
		inner := handler
		handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			req, _ := strconv.Atoi(r.Header.Get("X-Request-ID")) // 0 (no request) for the stats reads
			id := tr.rec.begin("httpapi.handler", 0, int32(req))
			inner.ServeHTTP(rw, r)
			tr.rec.end(id)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.srv.Close()
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: handler}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	w.clients = nil
	for i := 0; i < w.e.c; i++ {
		w.clients = append(w.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	// Warm-up, sequential: the system prompts are prefilled and published
	// once each, then a few more requests take the adoption path.
	for i, req := range w.warm {
		_, toks, err := w.do(w.clients[i%len(w.clients)], nil, -1, req.body(), req.maxTokens, time.Now())
		if err != nil {
			w.close()
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
		w.eng.done(len(toks))
	}
	return nil
}

func (w *httpLoad) close() {
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil {
		w.hs.Close()
	}
	<-w.served
	w.eng.srv.Close()
}

// sseChunk is the part of a completion chunk the client reads.
type sseChunk struct {
	Choices []struct {
		Tokens       []int  `json:"tokens"`
		FinishReason string `json:"finish_reason"`
	} `json:"choices"`
	Error string `json:"error"`
}

// httpSample is what one request's client saw.
type httpSample struct {
	reqSample
	arrivals []time.Duration // token chunk arrival times since the pass began
}

// do sends one streaming completion and reads it to [DONE]. idx is the
// request's index for spans (-1 = warm-up, unrecorded).
func (w *httpLoad) do(c *http.Client, rec *recorder, idx int, body []byte, wantTokens int, passStart time.Time) (httpSample, []int, error) {
	var s httpSample
	req, err := http.NewRequest(http.MethodPost, w.url+"/v1/completions", bytes.NewReader(body))
	if err != nil {
		return s, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	rid := int32(idx + 1)
	req.Header.Set("X-Request-ID", strconv.Itoa(int(rid)))
	root := rec.begin("client.request", 0, rid)
	defer rec.end(root)
	phase := rec.begin("client.ttft", root, rid)
	defer func() { rec.end(phase) }()

	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return s, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.non2xx.Add(1)
		io.Copy(io.Discard, resp.Body)
		return s, nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var (
		toks   []int
		at     []time.Duration // since t0
		finish string
		done   time.Duration
		chunk  sseChunk
	)
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return s, toks, fmt.Errorf("stream ended before [DONE]: %w", err)
		}
		payload, ok := bytes.CutPrefix(bytes.TrimSpace(line), []byte("data: "))
		if !ok {
			continue
		}
		if string(payload) == "[DONE]" {
			done = time.Since(t0)
			break
		}
		chunk = sseChunk{}
		if err := json.Unmarshal(payload, &chunk); err != nil {
			return s, toks, fmt.Errorf("bad chunk: %w", err)
		}
		if chunk.Error != "" {
			return s, toks, fmt.Errorf("engine error: %s", chunk.Error)
		}
		for _, ch := range chunk.Choices {
			if len(ch.Tokens) > 0 {
				if len(toks) == 0 {
					rec.end(phase)
					phase = rec.begin("client.stream", root, rid)
				}
				toks = append(toks, ch.Tokens...)
				at = append(at, time.Since(t0))
			}
			if ch.FinishReason != "" {
				finish = ch.FinishReason
			}
		}
	}
	if finish != string(serve.ReasonLength) || len(toks) != wantTokens || len(at) == 0 {
		return s, toks, fmt.Errorf("finish reason %q with %d of %d tokens", finish, len(toks), wantTokens)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var worst time.Duration
	for i := 1; i < len(at); i++ {
		worst = max(worst, at[i]-at[i-1])
	}
	s.ttft, s.stall, s.latency = ms(at[0]), ms(worst), ms(done)
	if len(at) > 1 {
		s.tpot = ms(at[len(at)-1]-at[0]) / float64(len(at)-1)
	}
	off := t0.Sub(passStart)
	for _, a := range at {
		s.arrivals = append(s.arrivals, off+a)
	}
	return s, toks, nil
}

func (w *httpLoad) pass(d time.Duration) *passResult {
	res := &passResult{}
	sz := w.e.sz
	rec := w.tr.recorder()
	base, err := w.eng.snap(w.tr)
	if err != nil {
		res.failed++
	}
	w.eng.base = base
	w.outputs = map[int][]int{}
	w.gapsMS = nil

	var (
		mu       sync.Mutex
		next     int
		arrivals []time.Duration
	)
	start := time.Now()
	// clients runs the closed loop: every client takes the next request
	// index until keepGoing says stop.
	clients := func(keepGoing func(next int) bool) {
		var wg sync.WaitGroup
		for _, c := range w.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					ok := keepGoing(i)
					if ok {
						next++
					}
					mu.Unlock()
					if !ok {
						return
					}
					k := i % len(w.reqs)
					s, toks, err := w.do(c, rec, i, w.bodies[k], w.reqs[k].maxTokens, start)
					w.eng.done(len(toks))
					mu.Lock()
					res.attempted++
					if err != nil {
						res.failed++
					} else {
						res.reqs = append(res.reqs, s.reqSample)
						arrivals = append(arrivals, s.arrivals...)
						for j := 1; j < len(s.arrivals); j++ {
							w.gapsMS = append(w.gapsMS, float64(s.arrivals[j]-s.arrivals[j-1])/1e6)
						}
						if i < sz.httpCount && i%sz.checkEvery == 0 {
							w.outputs[i] = toks
						}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	// Count window first, with a barrier behind it so the engine's traffic
	// counts cover exactly these requests; then until the time is up.
	clients(func(next int) bool { return next < sz.httpCount })
	if now, err := w.eng.attn(); err != nil {
		res.failed++
	} else {
		res.counts = statsSince(now, base.attn)
	}
	clients(func(int) bool { return time.Since(start) < d })
	res.wall = time.Since(start)
	res.batchTokS = windowRates(arrivals, 500*time.Millisecond)
	return res
}

// windowRates buckets event times into fixed windows and returns events per
// second for every complete window between the first and the last event.
func windowRates(at []time.Duration, win time.Duration) []float64 {
	if len(at) == 0 {
		return nil
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	n := int((at[len(at)-1] - at[0]) / win)
	if n == 0 { // shorter than one window: the whole span is the batch
		return []float64{float64(len(at)) / max(at[len(at)-1]-at[0], time.Millisecond).Seconds()}
	}
	counts := make([]float64, n)
	for _, t := range at {
		if k := int((t - at[0]) / win); k < n {
			counts[k]++
		}
	}
	for i := range counts {
		counts[i] /= win.Seconds()
	}
	return counts
}

func (w *httpLoad) verify(res *passResult, out *result) float64 {
	checked := map[int]genReq{}
	for i := 0; i < w.e.sz.httpCount; i += w.e.sz.checkEvery {
		checked[i] = w.reqs[i%len(w.reqs)]
	}
	return verifyServing(w.eng.params, w, checked, w.outputs, res, out)
}

// layers adds what the client and a middleware around the handler saw, the
// engine's own accounting, its lifecycle tracer, and a fleet comparison.
func (w *httpLoad) layers(plain, traced *passResult, out *result) {
	w.eng.serveLayers(w.tr, traced, out)

	tot := w.tr.rec.totals()
	if h := tot["httpapi.handler"]; h != nil {
		out.set("httpapi.handler_p50_ms", median(h.Durs)/1e3, "ms", h.Count)
	}
	var ttft []float64
	for _, r := range traced.reqs {
		ttft = append(ttft, r.ttft)
	}
	engine := out.Metrics["serve.engine_ttft_mean_ms"].Value
	out.set("httpapi.ttft_overhead_ms", ratio(sum(ttft), float64(len(ttft)))-engine, "ms", len(ttft))
	out.set("httpapi.itl_p50_ms", median(w.gapsMS), "ms", len(w.gapsMS))
	out.set("httpapi.itl_p95_ms", quantile(w.gapsMS, 0.95), "ms", len(w.gapsMS))

	// The engine's own endpoints must answer and agree with the client.
	var stats struct {
		Report serve.Report `json:"report"`
	}
	for _, path := range []string{"/v1/stats", "/metrics"} {
		resp, err := w.clients[0].Get(w.url + path)
		if err != nil {
			out.fail("GET %s: %v", path, err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			w.non2xx.Add(1)
		}
		if path == "/v1/stats" {
			if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
				out.fail("GET %s: %v", path, err)
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if want := int64(len(w.warm) + traced.attempted); stats.Report.Admitted != want {
		out.fail("/v1/stats reports %d admitted sessions, the clients sent %d", stats.Report.Admitted, want)
	}
	out.set("httpapi.non2xx", float64(w.non2xx.Load()), "count", traced.attempted)

	w.fleetArm(out)
}

// fleetArm replays the head of the request list in-process, through the
// engine and then through a two-replica fleet, and compares throughput.
func (w *httpLoad) fleetArm(out *result) {
	n := min(w.e.sz.fleetReqs, len(w.reqs))
	reqs := w.reqs[len(w.reqs)-n:] // the tail: prompts the pass has rarely reached
	single, err := replay(func(r serve.GenerateRequest) (*serve.Stream, error) {
		return w.eng.srv.Submit(context.Background(), r)
	}, reqs, w.e.c)
	if err != nil {
		out.fail("in-process replay: %v", err)
		return
	}
	fl := fleet.NewFleet(w.eng.params, fleet.Config{
		Replicas: 2,
		Affinity: true,
		Serve:    serve.Config{SharePrefix: true, NewKernel: func() model.Kernel { return newGenKernel() }},
	})
	defer fl.Close()
	submit := func(r serve.GenerateRequest) (*serve.Stream, error) {
		return fl.Submit(context.Background(), fleet.Request{GenerateRequest: r})
	}
	if _, err := replay(submit, w.warm, 1); err != nil { // cache the system prompts, as the engine has
		out.fail("fleet warm-up: %v", err)
		return
	}
	before := fl.Report().Routing
	multi, err := replay(submit, reqs, w.e.c)
	if err != nil {
		out.fail("fleet replay: %v", err)
		return
	}
	rt := fl.Report().Routing
	affine := float64(rt.Affinity - before.Affinity)
	routed := affine + float64(rt.Spilled-before.Spilled) + float64(rt.Balanced-before.Balanced)
	out.set("fleet.affinity_share", ratio(affine, routed), "share", int(routed))
	out.set("fleet.route_mean_us", fl.Metrics().RouteSeconds.Mean()*1e6, "us", int(fl.Metrics().RouteSeconds.Count()))
	out.set("fleet.tok_s_vs_single_x", ratio(multi, single), "x", n)
}
