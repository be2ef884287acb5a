package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/sample"
)

// workloadNames lists the workloads in the order the suite runs them.
var workloadNames = []string{"decode_long", "decode_short", "http_shared", "burst_mixed"}

// metric is one reported number. N is the sample count behind it (printed in
// the table, not part of the result line).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// fail marks the outputs wrong and says why.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.note(format, args...)
}

// checkFinite fails the result for every metric that is not a finite number
// (or, with positive set, not above zero: end-to-end metrics are never 0).
func (r *result) checkFinite(positive bool) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || positive && m.Value <= 0 {
			r.fail("%s = %v is not a finite%s number", name, m.Value, map[bool]string{true: " positive"}[positive])
		}
	}
}

// note adds a remark to the printed table.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// reqSample is what one request's caller saw, in milliseconds. A library
// sequence is a request too: its first token is ready when Prompt returns
// and every Step is one inter-token gap.
type reqSample struct {
	ttft, tpot, stall, latency float64
}

// passResult is one measured pass over a workload's units.
type passResult struct {
	reqs      []reqSample
	batchTokS []float64 // tokens per second the callers saw, per batch (sequence, wave or time window)
	// libTokS is Step calls per second of Step time, per library sequence:
	// the workload's own sequences (library workloads) or the sequences
	// shaped like its requests that verify decodes (serving workloads).
	libTokS   []float64
	wall      time.Duration
	attempted int
	failed    int
	// counts is the generation kernel's computed traffic over the count
	// window: a fixed number of leading units, so it repeats exactly for a
	// seed however many units the time limit then allows.
	counts attention.Stats

	// Library decode only.
	stepUS    []float64 // every Step call, microseconds
	promptTok int
	nll       float64 // token-picker NLL over the reference units
	nllN      int
}

// pick returns one field of every request sample.
func (res *passResult) pick(f func(reqSample) float64) []float64 {
	xs := make([]float64, len(res.reqs))
	for i, r := range res.reqs {
		xs[i] = f(r)
	}
	return xs
}

// workload is one traffic mix. boot is one complete set-up (load weights,
// build the engine, warm it up); pass measures; verify does the untimed
// reference work (quality against the quantized-exact kernel, and re-decoding
// checked requests serially).
type workload interface {
	boot(tr *tracing) error
	pass(d time.Duration) *passResult
	close()
	verify(res *passResult, out *result) (pplRatio float64)
	// layers adds the per-layer metrics this workload can observe from
	// outside its engine after a traced pass.
	layers(plain, traced *passResult, out *result)
	// profile returns library sequences shaped like this workload's
	// requests, for the replay arms of the traced run.
	profile() (prompt, steps int, seqs [][]int)
}

// tracing is what a traced boot wires in; nil means a timed run, where the
// harness records no spans and the engine tracer stays off.
type tracing struct {
	rec     *recorder
	kernels kernelSet
}

func newTracing() *tracing {
	rec := newRecorder()
	return &tracing{rec: rec, kernels: kernelSet{rec: rec}}
}

// recorder is the span recorder, nil on a timed run.
func (t *tracing) recorder() *recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

func newWorkload(e *env, name string) (workload, error) {
	switch name {
	case "decode_long":
		return newDecodeLoad(e, e.sz.longPrompt, e.sz.longSteps, e.sz.longSeqs, e.sz.longCount, e.sz.longRef), nil
	case "decode_short":
		return newDecodeLoad(e, e.sz.shortPrompt, e.sz.shortSteps, e.sz.shortSeqs, e.sz.shortCount, e.sz.shortRef), nil
	case "http_shared":
		return newHTTPLoad(e), nil
	case "burst_mixed":
		return newBurstLoad(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// setUp runs the workload's complete set-up several times — at least
// sz.setupReps, and more while they stay cheap — closing all but the last,
// and returns the median duration and the number of repetitions.
func setUp(w workload, sz sizes) (float64, int, error) {
	var durs []float64
	begin := time.Now()
	for {
		t0 := time.Now()
		if err := w.boot(nil); err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
		if n := len(durs); n >= sz.setupReps && (n >= sz.setupRepsMax || time.Since(begin) > sz.setupBudget) {
			return median(durs), n, nil
		}
		w.close()
	}
}

// runTimed is a --trace 0 run: every end-to-end metric, tracing off.
func runTimed(e *env, name string, seconds float64) (*result, error) {
	w, err := newWorkload(e, name)
	if err != nil {
		return nil, err
	}
	out := &result{Correct: true, Metrics: map[string]metric{}}
	setup, reps, err := setUp(w, e.sz)
	if err != nil {
		return nil, err
	}
	res := w.pass(time.Duration(seconds * float64(time.Second)))
	rss := peakRSSMB()
	w.close()
	ppl := w.verify(res, out)

	out.Attempted, out.Failed = res.attempted, res.failed
	if res.failed > 0 {
		out.fail("%d of %d requests failed", res.failed, res.attempted)
	}
	n := len(res.reqs)
	out.set("setup_s", setup, "s", reps)
	out.set("decode_tok_s", median(res.libTokS), "tok/s", len(res.libTokS))
	out.set("gen_tok_s", median(res.batchTokS), "tok/s", len(res.batchTokS))
	out.set("ttft_p50_ms", median(res.pick(func(r reqSample) float64 { return r.ttft })), "ms", n)
	out.set("tpot_p50_ms", median(res.pick(func(r reqSample) float64 { return r.tpot })), "ms", n)
	out.set("latency_p50_ms", median(res.pick(func(r reqSample) float64 { return r.latency })), "ms", n)
	out.set("ppl_ratio", ppl, "x", res.nllN)
	out.set("kv_bytes_reduction_x", res.counts.TotalReduction(), "x", int(res.counts.Instances))
	out.set("peak_rss_mb", rss, "MB", 1)
	out.checkFinite(true)
	return out, nil
}

// runTraced is a --trace 1 run: every per-layer metric. It measures the
// workload twice over the same units — spans off, then spans on — so the
// difference is the tracing overhead, then replays single layers on a
// library decoder shaped like the workload's requests.
func runTraced(e *env, name string, seconds float64) (*result, error) {
	w, err := newWorkload(e, name)
	if err != nil {
		return nil, err
	}
	out := &result{Correct: true, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		out.set(d.name, 0, d.unit, 0) // a layer off this workload's path reads 0
	}
	d := time.Duration(seconds / 3 * float64(time.Second))

	if err := w.boot(nil); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain := w.pass(d)
	w.close()

	tr := newTracing()
	if err := w.boot(tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	traced := w.pass(d)
	w.layers(plain, traced, out)
	w.close()

	out.Attempted, out.Failed = plain.attempted+traced.attempted, plain.failed+traced.failed
	if out.Failed > 0 {
		out.fail("%d of %d requests failed", out.Failed, out.Attempted)
	}
	// The two tail timings are too unsteady on a shared host to carry a
	// bound (see README), so they are reported here, from the traced pass.
	out.set("ttft_p95_ms", quantile(traced.pick(func(r reqSample) float64 { return r.ttft }), 0.95), "ms", len(traced.reqs))
	out.set("stall_p50_ms", median(traced.pick(func(r reqSample) float64 { return r.stall })), "ms", len(traced.reqs))
	t0, t1 := median(plain.batchTokS), median(traced.batchTokS)
	out.set("harness.trace_overhead_pct", 100*(t0-t1)/t0, "%", len(traced.batchTokS))
	counts := traced.counts
	out.set("attention.kv_bytes_reduction_x", counts.TotalReduction(), "x", int(counts.Instances))
	out.set("attention.k_bytes_reduction_x", counts.KReduction(), "x", int(counts.Instances))
	out.set("attention.pruning_ratio", counts.PruningRatio(), "x", int(counts.Instances))
	out.set("core.kept_ratio", ratio(float64(counts.Kept), float64(counts.Tokens)), "share", int(counts.Instances))
	var fetches int64
	for _, f := range counts.ChunkFetches {
		fetches += f
	}
	out.set("core.chunk_fetches_per_token", ratio(float64(fetches), float64(counts.Tokens)), "count", int(counts.Instances))
	if plain.counts.KBytes != counts.KBytes || plain.counts.VBytes != counts.VBytes || plain.counts.Kept != counts.Kept {
		out.fail("count window differs between the plain and the traced pass: %+v vs %+v", plain.counts, counts)
	}

	p, err := e.loadParams()
	if err != nil {
		return nil, err
	}
	libraryArms(e, p, w, tr.rec, out)

	if e.outDir != "" {
		if err := tr.rec.write(filepath.Join(e.outDir, "trace-"+name+".jsonl")); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	out.checkFinite(false)
	return out, nil
}

// printTable writes the metrics by name with unit and sample count.
func printTable(name string, trace int, r *result) {
	fmt.Printf("# workload %s, trace %d: attempted %d, failed %d, correct %v\n", name, trace, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("#   %-34s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, n := range r.notes {
		fmt.Printf("# ! %s\n", n)
	}
}

// referenceDecode generates maxTokens greedy tokens for prompt with a serial
// library decoder, continuing from the adopt tokens dec already holds (a
// shared system prompt is prefilled once across checks).
func referenceDecode(dec *model.Decoder, prompt []int, adopt, maxTokens int) ([]int, error) {
	dec.Rollback(adopt)
	logits, err := dec.Prompt(prompt[adopt:])
	if err != nil {
		return nil, err
	}
	hist := append([]int(nil), prompt...)
	sampler := sample.MustNew(sample.Config{}) // greedy, with the engine's tie-breaking
	var out []int
	for i := 0; i < maxTokens; i++ {
		tok := sampler.Sample(logits, hist)
		out = append(out, tok)
		hist = append(hist, tok)
		if i == maxTokens-1 {
			break
		}
		if logits, err = dec.Step(tok); err != nil {
			return nil, err
		}
	}
	return out, nil
}
