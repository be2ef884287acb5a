// Command topick-serve runs the continuous-batching serving engine in two
// modes.
//
// Offline demo (default): trains the demo model, fires a wave of concurrent
// mixed-length generation requests through the scheduler with Token-Picker
// pruned attention on every worker, and prints the fleet-wide throughput,
// pruning, KV-pool, prefix-sharing, and preemption report. With -compare it
// also decodes the same traffic serialized on a single decoder and runs a
// shared-prefix fleet with sharing on vs off, printing both side-by-side
// tables.
//
// HTTP server (-listen): boots the engine behind the OpenAI-style HTTP API
// (POST /v1/completions with optional SSE streaming, GET /v1/stats,
// GET /v1/trace, GET /metrics, GET /healthz, GET /readyz) and runs until
// SIGINT/SIGTERM, then flips /readyz to 503 (draining), waits -drain-grace
// for load balancers to notice, drains in-flight sessions, and exits
// cleanly. With -replicas N (N > 1) the same API fronts a fleet of N
// engine replicas behind a prefix-affinity router (-affinity), adding
// per-replica GET /v1/replicas/{id}/stats and /metrics.
//
// Observability: -trace-buf sizes the lifecycle tracer's ring (served at
// GET /v1/trace), -trace-out records every span event to a JSONL file
// replayable by topick-sim -trace, and -pprof mounts net/http/pprof under
// /debug/pprof/.
//
// Usage:
//
//	topick-serve -sessions 12 -workers 4 -max-new 48 -threshold 1e-3 -compare
//	topick-serve -max-blocks 256 -max-preempts 4   # preempt under pool pressure
//	topick-serve -listen :8080                     # HTTP/SSE front-end
//	topick-serve -listen :8080 -trace-out trace.jsonl -pprof
//	topick-serve -listen :8080 -replicas 2                 # replica fleet
//	curl -s localhost:8080/v1/completions -d '{"prompt":[1,2,3],"max_tokens":8}'
//	curl -s localhost:8080/metrics | grep topick_ttft
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"tokenpicker"
	"tokenpicker/internal/bench"
)

func main() {
	var (
		sessions  = flag.Int("sessions", 12, "concurrent generation requests (offline demo)")
		workers   = flag.Int("workers", 4, "decode workers")
		maxNew    = flag.Int("max-new", 48, "tokens to generate per session")
		promptLen = flag.Int("prompt", 24, "shortest prompt length")
		stride    = flag.Int("stride", 6, "extra prompt tokens per session index")
		threshold = flag.Float64("threshold", 1e-3, "Token-Picker pruning threshold")
		blockRows = flag.Int("block-rows", 32, "KV pool block granularity (rows)")
		parallel  = flag.Int("parallel", 1, "per-worker head parallelism (executor slots; 0 = NumCPU)")
		maxBatch  = flag.Int("max-batch-tokens", 0, "row budget of one scheduling iteration: token rows a worker co-schedules across sessions (0 = one session per iteration)")
		temp      = flag.Float64("temperature", 0, "sampling temperature (0 = greedy)")
		deadline  = flag.Duration("deadline", 0, "per-request deadline (0 = none)")
		compare   = flag.Bool("compare", false, "also run the serialized baseline")
		share     = flag.Bool("share-prefix", true, "share cached prompt-prefix KV blocks across sessions")
		maxBlocks = flag.Int("max-blocks", 0, "KV pool block budget (0 = unbounded; exhaustion preempts sessions)")
		preempts  = flag.Int("max-preempts", 0, "per-session preemption budget (0 = default, negative = reject on exhaustion)")
		specK     = flag.Int("speculate-k", 0, "speculative decoding draft window: verify up to K prompt-lookup draft tokens per engine pass (0 = off; output is bit-identical either way)")
		replicas  = flag.Int("replicas", 1, "engine replicas behind a prefix-affinity router (>1 = fleet mode; token streams stay bit-identical to -replicas 1)")
		affinity  = flag.Bool("affinity", true, "with -replicas >1, route by rendezvous hash of the leading prompt chunks so shared prefixes stay replica-local (false = least-loaded only)")
		listen    = flag.String("listen", "", "serve the HTTP API on this address (e.g. :8080) instead of the offline demo")

		traceOut   = flag.String("trace-out", "", "record the lifecycle trace to this JSONL file (replayable by topick-sim -trace)")
		traceBuf   = flag.Int("trace-buf", 0, "lifecycle tracer ring capacity for GET /v1/trace (0 = off unless -trace-out is set)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (with -listen)")
		drainGrace = flag.Duration("drain-grace", 0, "after SIGTERM, keep answering with /readyz=503 this long before closing the listener")
	)
	flag.Parse()

	// The tracer must exist before the engine: ServeConfig.Tracer is wired at
	// construction. A -trace-out file implies a ring even when -trace-buf is
	// unset, so /v1/trace works whenever recording does.
	var tracer *tokenpicker.Tracer
	var traceFile *os.File
	var traceSink *tokenpicker.TraceJSONLWriter
	if *traceBuf > 0 || *traceOut != "" {
		n := *traceBuf
		if n <= 0 {
			n = 4096
		}
		tracer = tokenpicker.NewTracer(n)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		traceSink = tokenpicker.NewTraceJSONLWriter(f)
		tracer.SetSink(traceSink)
	}
	flushTrace := func() {
		if traceSink == nil {
			return
		}
		if err := traceSink.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
		}
		fmt.Printf("lifecycle trace written to %s\n", *traceOut)
	}

	fmt.Println("training demo model (cached per process)...")
	res := tokenpicker.TrainDemoModel()
	cfg := res.Params.Cfg
	fmt.Printf("model %s: %d layers x %d heads, head dim %d, context %d\n\n",
		cfg.Name, cfg.Layers, cfg.Heads, cfg.HeadDim, cfg.MaxSeq)

	engineCfg := tokenpicker.ServeConfig{
		Workers:        *workers,
		MaxBatchTokens: *maxBatch,
		BlockRows:      *blockRows,
		MaxBlocks:      *maxBlocks,
		SharePrefix:    *share,
		MaxPreempts:    *preempts,
		Speculate:      tokenpicker.SpeculateConfig{K: *specK},
		HeadParallel:   tokenpicker.ResolveParallel(*parallel),
		Tracer:         tracer,
		Detokenize:     detok,
		NewKernel:      func() tokenpicker.Kernel { return tokenpicker.NewKernel(*threshold) },
	}

	if *replicas > 1 {
		if *listen == "" {
			fmt.Fprintln(os.Stderr, "-replicas >1 needs -listen: fleet mode serves the HTTP API")
			os.Exit(2)
		}
		if tracer != nil {
			// Replica session ids would collide in one shared ring; requests
			// are correlated across replicas via X-Request-ID instead.
			fmt.Fprintln(os.Stderr, "fleet mode ignores -trace-buf/-trace-out (tracing is per-replica); correlate with X-Request-ID")
			engineCfg.Tracer = nil
		}
		fl := tokenpicker.NewFleet(res.Params, tokenpicker.FleetConfig{
			Replicas: *replicas,
			Affinity: *affinity,
			Serve:    engineCfg,
		})
		serveFleetHTTP(fl, *listen, *pprofOn, *drainGrace)
		return
	}

	srv := tokenpicker.NewServer(res.Params, engineCfg)

	if *listen != "" {
		serveHTTP(srv, *listen, *pprofOn, *drainGrace)
		flushTrace()
		return
	}
	offlineDemo(res, srv, offlineOptions{
		sessions: *sessions, workers: *workers, maxNew: *maxNew,
		promptLen: *promptLen, stride: *stride, threshold: *threshold,
		blockRows: *blockRows, parallel: *parallel, specK: *specK,
		temp: *temp, deadline: *deadline, compare: *compare, share: *share,
	})
	flushTrace()
}

// detok renders a synthetic-vocabulary token for the HTTP text fields.
func detok(tok int) string { return fmt.Sprintf("%d ", tok) }

// serveHTTP runs the engine behind the HTTP front-end until SIGINT/SIGTERM,
// then shuts down in order: flip /readyz to 503 (draining) and wait the
// grace period so load balancers stop routing here, stop accepting
// connections, drain in-flight sessions, print the fleet report.
func serveHTTP(srv *tokenpicker.Server, addr string, pprofOn bool, drainGrace time.Duration) {
	handler := tokenpicker.NewHTTPHandler(srv, tokenpicker.HTTPOptions{
		Model: "topick-demo",
		Detok: detok,
	})
	runHTTP(handler, addr, pprofOn, drainGrace, func() {
		srv.Close()
		rep := srv.Report()
		fmt.Printf("served %d sessions (%d prompt + %d generated tokens), pruning %.2fx\n",
			rep.Admitted, rep.PromptTokens, rep.GenTokens, rep.Attn.PruningRatio())
	})
}

// serveFleetHTTP is serveHTTP for a replica fleet: same lifecycle, fleet
// front-end, router-aware final report.
func serveFleetHTTP(fl *tokenpicker.Fleet, addr string, pprofOn bool, drainGrace time.Duration) {
	handler := tokenpicker.NewFleetHTTPHandler(fl, tokenpicker.HTTPOptions{
		Model: "topick-demo",
		Detok: detok,
	})
	fmt.Printf("fleet mode: %d replicas behind prefix-affinity routing\n", fl.Replicas())
	runHTTP(handler, addr, pprofOn, drainGrace, func() {
		fl.Close()
		rep := fl.Report()
		roll := rep.Rollup()
		fmt.Printf("served %d sessions across %d replicas (%d prompt + %d generated tokens)\n",
			roll.Admitted, fl.Replicas(), roll.PromptTokens, roll.GenTokens)
		fmt.Printf("routing: %d affinity, %d spilled, %d balanced, %d rate-limited, %d rejected\n",
			rep.Routing.Affinity, rep.Routing.Spilled, rep.Routing.Balanced,
			rep.Routing.RateLimited, rep.Routing.Rejected)
	})
}

// runHTTP is the shared server lifecycle: listen, wait for SIGINT/SIGTERM,
// flip /readyz to draining, grace, shut the listener, then let report drain
// the engine(s) and print the final accounting.
func runHTTP(handler *tokenpicker.HTTPHandler, addr string, pprofOn bool, drainGrace time.Duration, report func()) {
	var root http.Handler = handler
	if pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root = mux
	}
	hs := &http.Server{Addr: addr, Handler: root}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("HTTP API listening on %s (POST /v1/completions, GET /v1/stats, GET /metrics)\n", addr)
	if pprofOn {
		fmt.Printf("pprof mounted at http://%s/debug/pprof/\n", addr)
	}

	select {
	case <-ctx.Done():
		fmt.Println("\nsignal received, draining...")
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "http: %v\n", err)
		os.Exit(1)
	}
	handler.SetDraining(true)
	if drainGrace > 0 {
		time.Sleep(drainGrace)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
	}
	report()
	fmt.Println("clean shutdown")
}

type offlineOptions struct {
	sessions, workers, maxNew, promptLen, stride int
	blockRows, parallel, specK                   int
	threshold, temp                              float64
	deadline                                     time.Duration
	compare, share                               bool
}

func offlineDemo(res *tokenpicker.TrainResult, srv *tokenpicker.Server, o offlineOptions) {
	cfg := res.Params.Cfg
	if o.sessions < 1 || o.promptLen < 1 || o.stride < 0 {
		fmt.Fprintln(os.Stderr, "need -sessions >= 1, -prompt >= 1, -stride >= 0")
		os.Exit(2)
	}
	if longest := o.promptLen + (o.sessions-1)*o.stride; longest >= len(res.Held) {
		fmt.Fprintf(os.Stderr, "longest prompt %d exceeds the %d-token held-out stream; lower -sessions/-prompt/-stride\n",
			longest, len(res.Held))
		os.Exit(2)
	}

	type outcome struct {
		prompt int
		res    tokenpicker.ServeResult
	}
	outcomes := make([]outcome, o.sessions)
	start := time.Now()
	streams := make([]*tokenpicker.ServeStream, o.sessions)
	for i := 0; i < o.sessions; i++ {
		l := o.promptLen + i*o.stride
		startTok := (i * 17) % (len(res.Held) - l)
		ctx := context.Background()
		if o.deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, o.deadline)
			defer cancel()
		}
		var sampling tokenpicker.SamplingConfig
		if o.temp > 0 {
			sampling = tokenpicker.SamplingConfig{Temperature: o.temp, Seed: int64(i + 1)}
		}
		st, err := srv.Submit(ctx, tokenpicker.GenerateRequest{
			Prompt:    res.Held[startTok : startTok+l],
			MaxTokens: o.maxNew,
			Sampling:  sampling,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "submit %d: %v\n", i, err)
			os.Exit(1)
		}
		streams[i] = st
		outcomes[i].prompt = l
	}
	for i, st := range streams {
		for range st.Events() {
			// A real consumer would forward events as they stream in; the
			// demo only accounts for them.
		}
		outcomes[i].res = st.Result()
	}
	wall := time.Since(start)
	live := srv.Report().Prefix // before Close empties the index
	srv.Close()
	rep := srv.Report()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "session\tprompt\tgenerated\tfinish\tTTFT\telapsed")
	for i, o := range outcomes {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%v\t%v\n", i, o.prompt, o.res.Usage.GeneratedTokens, o.res.Reason,
			o.res.TTFT.Round(time.Millisecond), o.res.Elapsed.Round(time.Millisecond))
	}
	w.Flush()

	var gen int64
	for _, o := range outcomes {
		gen += int64(o.res.Usage.GeneratedTokens)
	}
	fmt.Printf("\nfleet report (%d sessions, %d workers):\n", rep.Admitted, o.workers)
	fmt.Printf("  wall time            : %v (%.1f generated tokens/s)\n",
		wall.Round(time.Millisecond), float64(gen)/wall.Seconds())
	fmt.Printf("  peak concurrency     : %d sessions in flight\n", rep.PeakConcurrent)
	fmt.Printf("  prompt/gen tokens    : %d / %d\n", rep.PromptTokens, gen)
	fmt.Printf("  fleet pruning ratio  : %.2fx (%d of %d context tokens fetched)\n",
		rep.Attn.PruningRatio(), rep.Attn.Kept, rep.Attn.Tokens)
	fmt.Printf("  K access reduction   : %.2fx, total KV reduction %.2fx\n",
		rep.Attn.KReduction(), rep.Attn.TotalReduction())
	fmt.Printf("  KV pool              : %s\n", rep.Pool)
	if o.share {
		fmt.Printf("  prefix index         : %d chunks published, hit rate %.0f%%, %d KV rows reused (%d from tails), evicted %d (%d resident at drain)\n",
			rep.Prefix.Published, 100*rep.Prefix.HitRate(), rep.Prefix.RowsReused, rep.Prefix.TailRows, live.Evicted, live.Entries)
	}
	if rep.Preempted > 0 {
		fmt.Printf("  preemptions          : %d (re-computed %d generated tokens)\n",
			rep.Preempted, rep.RecomputeTokens)
	}
	if o.specK > 0 {
		m := srv.Metrics()
		drafted, accepted := m.SpecDrafted.Value(), m.SpecAccepted.Value()
		rate := 0.0
		if drafted > 0 {
			rate = float64(accepted) / float64(drafted)
		}
		fmt.Printf("  speculation (k=%d)    : %d drafted, %d accepted (%.0f%%), %d verify passes\n",
			o.specK, drafted, accepted, 100*rate, m.SpecVerifies.Value())
	}
	eager := int64(o.sessions) * int64(cfg.MaxSeq) * int64(cfg.Layers*cfg.Heads*2)
	fmt.Printf("  vs eager allocation  : %d rows backed instead of %d (%.1fx less)\n",
		rep.Pool.AllocatedRows(), eager, float64(eager)/float64(rep.Pool.AllocatedRows()))

	if o.compare {
		fmt.Println()
		cmp := bench.CompareServing(res, bench.ServingOptions{
			Sessions: o.sessions, PromptLen: o.promptLen, Stride: o.stride,
			MaxNew: o.maxNew, Workers: o.workers, BlockRows: o.blockRows,
			Threshold:    o.threshold,
			HeadParallel: tokenpicker.ResolveParallel(o.parallel),
		})
		fmt.Println(bench.ServingTable(cmp).String())

		// The wave above uses distinct prompts; the prefix-sharing win needs
		// repeated prefixes (system prompts, chat history), so demo it on a
		// shared-prefix fleet.
		po := bench.DefaultPrefixServingOptions()
		po.Sessions = o.sessions
		po.MaxNew = o.maxNew
		po.Workers = o.workers
		po.BlockRows = o.blockRows
		po.Threshold = o.threshold
		fmt.Println(bench.PrefixServingTable(bench.ComparePrefixServing(res, po)).String())
	}
}
