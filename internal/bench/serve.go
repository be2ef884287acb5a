package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/tensor"
	"tokenpicker/internal/train"
)

// ServingOptions sizes the serialized-vs-continuous-batching comparison.
type ServingOptions struct {
	Sessions  int // concurrent generation requests
	PromptLen int // shortest prompt; session i adds i*Stride tokens
	Stride    int
	MaxNew    int     // tokens generated per session
	Workers   int     // server decode workers
	BlockRows int     // KV pool granularity
	Threshold float64 // Token-Picker pruning threshold
}

// DefaultServingOptions returns the profile used by cmd/topick-serve and the
// throughput benchmark.
func DefaultServingOptions() ServingOptions {
	return ServingOptions{
		Sessions:  12,
		PromptLen: 24,
		Stride:    6,
		MaxNew:    48,
		Workers:   4,
		BlockRows: 32,
		Threshold: 1e-3,
	}
}

// ServingResult is the outcome of one serving comparison.
//
// Throughput (tokens/s) scales with workers only up to the machine's core
// count — on a single core the two modes move the same FLOPs and the
// batched run pays a small scheduling tax. The structural win is the order
// of first tokens: serialized decoding queues whole sessions behind each
// other by construction, so only the first session emits a token before one
// finishes, while the continuous batcher interleaves them and prefills the
// admitted sessions within their first scheduling rounds. Mean
// time-to-first-token shows the same in seconds.
type ServingResult struct {
	Sessions      int
	TotalTokens   int64 // generated tokens across sessions
	SerialSec     float64
	BatchedSec    float64
	Speedup       float64 // serial wall / batched wall
	SerialTokSec  float64
	BatchedTokSec float64
	SerialTTFT    float64 // mean seconds from batch start to a session's first token
	BatchedTTFT   float64
	// BatchedStarted counts the batched sessions that emitted their first
	// token before any session finished.
	BatchedStarted int
	Report         serve.Report // fleet report of the batched run
	EagerRows      int64        // KV rows the seed's eager allocation would use
}

// servingPrompts builds the synthetic mixed-length traffic. Lengths are
// clamped to the held-out stream so oversized option sets degrade into
// repeated full-length prompts instead of slicing out of range.
func servingPrompts(r *train.Result, o ServingOptions) [][]int {
	prompts := make([][]int, o.Sessions)
	for i := range prompts {
		l := o.PromptLen + i*o.Stride
		if l < 1 {
			l = 1
		}
		if l >= len(r.Held) {
			l = len(r.Held) - 1
		}
		start := (i * 17) % (len(r.Held) - l)
		prompts[i] = r.Held[start : start+l]
	}
	return prompts
}

// CompareServing decodes the same mixed-length session set twice — first
// serialized on a single decoder (one request at a time, the seed repo's
// only mode), then through the continuous-batching server — and reports
// wall-clock, throughput, mean time-to-first-token, and the batched run's
// fleet statistics.
func CompareServing(r *train.Result, o ServingOptions) ServingResult {
	prompts := servingPrompts(r, o)

	// Serialized baseline: one decoder, sessions back to back, on the
	// shared pool a lone server runner steps on too, so the comparison
	// isolates continuous batching.
	kernel := attention.NewTokenPicker(o.Threshold)
	dec := model.NewDecoder(r.Params, kernel)
	start := time.Now()
	var serialToks int64
	var serialTTFT float64
	for _, p := range prompts {
		dec.Reset()
		// Stop a session on ErrContextFull like the server does, so both
		// arms degrade the same way when MaxNew overruns the window.
		logits, err := dec.Prompt(p)
		if err != nil {
			continue
		}
		tok := tensor.Argmax(logits)
		serialTTFT += time.Since(start).Seconds()
		serialToks++ // the first sampled token
		for g := 1; g < o.MaxNew; g++ {
			logits, err = dec.Step(tok)
			if err != nil {
				break
			}
			tok = tensor.Argmax(logits)
			serialToks++
		}
	}
	serialSec := time.Since(start).Seconds()

	// Continuous batching: all sessions in flight at once.
	srv := serve.NewServer(r.Params, serve.Config{
		Workers:   o.Workers,
		BlockRows: o.BlockRows,
		NewKernel: func() model.Kernel { return attention.NewTokenPicker(o.Threshold) },
	})
	start = time.Now()
	streams := make([]*serve.Stream, len(prompts))
	submitted := make([]time.Time, len(prompts))
	for i, p := range prompts {
		submitted[i] = time.Now()
		st, err := srv.Submit(context.Background(), serve.GenerateRequest{Prompt: p, MaxTokens: o.MaxNew})
		if err != nil {
			panic(fmt.Sprintf("bench: submit: %v", err))
		}
		streams[i] = st
	}
	var batchedToks int64
	var batchedTTFT float64
	first := make([]time.Time, len(prompts)) // zero: no token emitted
	finish := make([]time.Time, len(prompts))
	for i, st := range streams {
		res := st.Result()
		batchedToks += int64(res.Usage.GeneratedTokens)
		batchedTTFT += res.TTFT.Seconds()
		if res.TTFT > 0 {
			first[i] = submitted[i].Add(res.TTFT)
		}
		finish[i] = submitted[i].Add(res.Elapsed)
	}
	batchedSec := time.Since(start).Seconds()
	srv.Close()
	rep := srv.Report()

	cfg := r.Params.Cfg
	n := float64(len(prompts))
	return ServingResult{
		Sessions:       o.Sessions,
		TotalTokens:    batchedToks,
		SerialSec:      serialSec,
		BatchedSec:     batchedSec,
		Speedup:        serialSec / batchedSec,
		SerialTokSec:   float64(serialToks) / serialSec,
		BatchedTokSec:  float64(batchedToks) / batchedSec,
		SerialTTFT:     serialTTFT / n,
		BatchedTTFT:    batchedTTFT / n,
		BatchedStarted: startedBeforeFinish(first, finish),
		Report:         rep,
		EagerRows:      int64(o.Sessions) * int64(cfg.MaxSeq) * int64(cfg.Layers*cfg.Heads*2),
	}
}

// startedBeforeFinish counts the sessions whose first token (zero time: none)
// came before the earliest finish.
func startedBeforeFinish(first, finish []time.Time) int {
	if len(finish) == 0 {
		return 0
	}
	end := finish[0]
	for _, f := range finish[1:] {
		if f.Before(end) {
			end = f
		}
	}
	n := 0
	for _, f := range first {
		if !f.IsZero() && f.Before(end) {
			n++
		}
	}
	return n
}

// ServingTable renders the comparison in the experiment-harness style.
func ServingTable(res ServingResult) *Table {
	t := &Table{
		Title:  "Serving: serialized vs continuous batching",
		Header: []string{"mode", "wall (s)", "tokens/s", "mean TTFT (s)"},
	}
	t.AddRow("serialized", fmt.Sprintf("%.3f", res.SerialSec),
		fmt.Sprintf("%.1f", res.SerialTokSec), fmt.Sprintf("%.4f", res.SerialTTFT))
	t.AddRow("continuous", fmt.Sprintf("%.3f", res.BatchedSec),
		fmt.Sprintf("%.1f", res.BatchedTokSec), fmt.Sprintf("%.4f", res.BatchedTTFT))
	t.AddNote("wall speedup %.2fx, TTFT %.1fx lower, over %d sessions (%d generated tokens)",
		res.Speedup, res.SerialTTFT/res.BatchedTTFT, res.Sessions, res.TotalTokens)
	t.AddNote("sessions started before the first finished: continuous %d of %d (serialized: 1 by construction)",
		res.BatchedStarted, res.Sessions)
	t.AddNote("fleet pruning ratio %.2fx, total KV-transfer reduction %.2fx",
		res.Report.Attn.PruningRatio(), res.Report.Attn.TotalReduction())
	t.AddNote("KV pool: %s", res.Report.Pool)
	t.AddNote("eager allocation would back %d rows; pool backed %d (%.1fx less)",
		res.EagerRows, res.Report.Pool.AllocatedRows(),
		float64(res.EagerRows)/float64(res.Report.Pool.AllocatedRows()))
	return t
}

// BatchingOptions sizes the high-concurrency iteration-batching comparison:
// the same mixed-length fleet decoded twice through the serving engine, once
// at iteration row budget 0 (one session per iteration; the "worker" arm) and
// once at MaxBatchTokens (cross-session rows; the "batched" arm).
type BatchingOptions struct {
	Sessions       int // concurrent requests; >= 16 exercises real batch shapes
	PromptLen      int // shortest prompt; session i adds i*Stride tokens
	Stride         int
	MaxNew         int     // tokens generated per session
	Workers        int     // runner goroutines, both arms
	BlockRows      int     // KV pool granularity
	PromptChunk    int     // prefill chunk, both arms
	MaxBatchTokens int     // iteration token-row budget of the batched arm
	Threshold      float64 // Token-Picker pruning threshold
}

// DefaultBatchingOptions is the profile persisted to BENCH_decode.json.
func DefaultBatchingOptions() BatchingOptions {
	return BatchingOptions{
		Sessions:       16,
		PromptLen:      16,
		Stride:         7,
		MaxNew:         32,
		Workers:        4,
		BlockRows:      32,
		PromptChunk:    16,
		MaxBatchTokens: 48,
		Threshold:      1e-3,
	}
}

// BatchingResult is the outcome of one iteration-batching comparison. The
// structural quantity is Occupancy — mean token rows co-scheduled per
// iteration — while tokens/s only separates the arms when cores are available
// (on one core both move the same FLOPs and the batched arm pays a small
// assembly tax).
type BatchingResult struct {
	Sessions      int
	TotalTokens   int64   // generated tokens per arm
	WorkerSec     float64 // wall clock, row budget 0
	BatchedSec    float64 // wall clock, row budget MaxBatchTokens
	WorkerTokSec  float64
	BatchedTokSec float64
	WorkerTTFT50  float64 // TTFT quantiles (seconds) from the metrics digests
	WorkerTTFT95  float64
	BatchedTTFT50 float64
	BatchedTTFT95 float64
	Occupancy     float64 // mean token rows per batched iteration
	Iterations    int64   // batched iterations executed
	TokensMatch   bool    // batched tokens bit-identical to budget-0 tokens
	BatchedReport serve.Report
}

// runServingArm decodes prompts through one server config and returns the
// emitted token streams plus the timing quantities shared by both arms.
func runServingArm(r *train.Result, cfg serve.Config, prompts [][]int, maxNew int) (
	toks [][]int, wall float64, ttft50, ttft95 float64, rep serve.Report, met *serve.Metrics) {
	srv := serve.NewServer(r.Params, cfg)
	start := time.Now()
	streams := make([]*serve.Stream, len(prompts))
	for i, p := range prompts {
		st, err := srv.Submit(context.Background(), serve.GenerateRequest{Prompt: p, MaxTokens: maxNew})
		if err != nil {
			panic(fmt.Sprintf("bench: submit: %v", err))
		}
		streams[i] = st
	}
	toks = make([][]int, len(prompts))
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *serve.Stream) {
			defer wg.Done()
			for ev := range st.Events() {
				toks[i] = append(toks[i], ev.Token)
			}
		}(i, st)
	}
	wg.Wait()
	wall = time.Since(start).Seconds()
	met = srv.Metrics()
	ttft50 = met.TTFT.Quantile(0.5)
	ttft95 = met.TTFT.Quantile(0.95)
	srv.Close()
	rep = srv.Report()
	return toks, wall, ttft50, ttft95, rep, met
}

// CompareIterationBatching decodes the same high-concurrency mixed-length
// fleet twice — one session per iteration (row budget 0), then cross-session
// iterations (Config.MaxBatchTokens > 0) — and reports throughput, TTFT
// p50/p95, the batched arm's occupancy, and whether the two arms emitted
// identical tokens (they must: the budget changes scheduling, never results).
func CompareIterationBatching(r *train.Result, o BatchingOptions) BatchingResult {
	prompts := servingPrompts(r, ServingOptions{
		Sessions: o.Sessions, PromptLen: o.PromptLen, Stride: o.Stride,
	})
	newKernel := func() model.Kernel { return attention.NewTokenPicker(o.Threshold) }

	workerToks, workerSec, w50, w95, _, _ := runServingArm(r, serve.Config{
		Workers:     o.Workers,
		BlockRows:   o.BlockRows,
		PromptChunk: o.PromptChunk,
		SharePrefix: true,
		NewKernel:   newKernel,
	}, prompts, o.MaxNew)

	batchToks, batchSec, b50, b95, rep, met := runServingArm(r, serve.Config{
		Workers:        o.Workers,
		BlockRows:      o.BlockRows,
		PromptChunk:    o.PromptChunk,
		MaxBatchTokens: o.MaxBatchTokens,
		SharePrefix:    true,
		NewKernel:      newKernel,
	}, prompts, o.MaxNew)

	match := len(workerToks) == len(batchToks)
	var total int64
	for i := range workerToks {
		if !match {
			break
		}
		if len(workerToks[i]) != len(batchToks[i]) {
			match = false
			break
		}
		for j := range workerToks[i] {
			if workerToks[i][j] != batchToks[i][j] {
				match = false
				break
			}
		}
		total += int64(len(batchToks[i]))
	}
	return BatchingResult{
		Sessions:      o.Sessions,
		TotalTokens:   total,
		WorkerSec:     workerSec,
		BatchedSec:    batchSec,
		WorkerTokSec:  float64(total) / workerSec,
		BatchedTokSec: float64(total) / batchSec,
		WorkerTTFT50:  w50,
		WorkerTTFT95:  w95,
		BatchedTTFT50: b50,
		BatchedTTFT95: b95,
		Occupancy:     met.BatchRows.Mean(),
		Iterations:    met.BatchIterations.Value(),
		TokensMatch:   match,
		BatchedReport: rep,
	}
}

// SpeculativeOptions sizes the speculative-decoding comparison: the same
// greedy fleet decoded without drafting and then once per draft source.
type SpeculativeOptions struct {
	Sessions    int
	PromptLen   int // shortest prompt; session i adds i*Stride tokens
	Stride      int
	MaxNew      int     // tokens generated per session
	Workers     int     // server decode workers
	BlockRows   int     // KV pool granularity
	PromptChunk int     // prefill chunk
	K           int     // draft window ceiling (per-session adaptive below it)
	Threshold   float64 // Token-Picker pruning threshold of the target model
}

// DefaultSpeculativeOptions is the profile persisted to BENCH_decode.json.
func DefaultSpeculativeOptions() SpeculativeOptions {
	return SpeculativeOptions{
		Sessions:    8,
		PromptLen:   24,
		Stride:      5,
		MaxNew:      32,
		Workers:     4,
		BlockRows:   32,
		PromptChunk: 16,
		K:           4,
		Threshold:   1e-3,
	}
}

// SpeculativeArm is one draft configuration measured against the
// no-speculation baseline. TokensMatch is the contract, not a metric:
// drafting changes how tokens are computed, never which tokens come out.
type SpeculativeArm struct {
	Draft          string  // draft source name
	TokSec         float64 // generated tokens per wall-clock second
	Speedup        float64 // vs the no-speculation baseline
	Drafted        int64   // tokens proposed by the draft source
	Accepted       int64   // drafts confirmed by exact verification
	AcceptanceRate float64 // Accepted / Drafted
	TokensMatch    bool    // bit-identical to the baseline streams
}

// SpeculativeResult is the outcome of one speculative-decoding comparison.
//
// On this CPU-bound demo model the verify pass really does pay for its extra
// rows, so wall-clock speedup tracks (acceptance × batching efficiency) and
// can dip below 1.0 at low acceptance — the honest trade the paper's
// memory-bound regime tilts the other way, where k+1 rows cost roughly one
// weight sweep. The record exists to keep acceptance rate and the
// bit-identity contract measurable across PRs.
type SpeculativeResult struct {
	Sessions       int
	K              int
	TotalTokens    int64 // generated tokens per arm
	BaselineTokSec float64
	Arms           []SpeculativeArm
}

// CompareSpeculative decodes the same greedy fleet through the serving
// engine once without speculation and once per draft source — prompt-lookup
// n-grams and a pruned-attention decoder draft — and reports throughput,
// acceptance, and stream equality for each arm.
func CompareSpeculative(r *train.Result, o SpeculativeOptions) SpeculativeResult {
	prompts := servingPrompts(r, ServingOptions{
		Sessions: o.Sessions, PromptLen: o.PromptLen, Stride: o.Stride,
	})
	newKernel := func() model.Kernel { return attention.NewTokenPicker(o.Threshold) }
	base := serve.Config{
		Workers:     o.Workers,
		BlockRows:   o.BlockRows,
		PromptChunk: o.PromptChunk,
		SharePrefix: true,
		NewKernel:   newKernel,
	}

	baseToks, baseSec, _, _, _, _ := runServingArm(r, base, prompts, o.MaxNew)
	var total int64
	for _, toks := range baseToks {
		total += int64(len(toks))
	}
	res := SpeculativeResult{
		Sessions:       o.Sessions,
		K:              o.K,
		TotalTokens:    total,
		BaselineTokSec: float64(total) / baseSec,
	}

	drafts := []struct {
		name string
		mk   func() model.DraftSource
	}{
		{"ngram", nil}, // serving default: prompt-lookup drafting
		{"decoder", func() model.DraftSource {
			// The draft model is the same weights under attention pruned two
			// orders of magnitude harder: cheap proposals, exact verification.
			return &model.DecoderDraft{Dec: model.NewDecoder(
				r.Params, attention.NewTokenPicker(o.Threshold*100))}
		}},
	}
	for _, d := range drafts {
		cfg := base
		cfg.Speculate = serve.SpeculateConfig{K: o.K, NewDraft: d.mk}
		toks, wall, _, _, _, met := runServingArm(r, cfg, prompts, o.MaxNew)
		match := len(toks) == len(baseToks)
		for i := range baseToks {
			if !match {
				break
			}
			if len(toks[i]) != len(baseToks[i]) {
				match = false
				break
			}
			for j := range baseToks[i] {
				if toks[i][j] != baseToks[i][j] {
					match = false
					break
				}
			}
		}
		arm := SpeculativeArm{
			Draft:       d.name,
			TokSec:      float64(total) / wall,
			Speedup:     baseSec / wall,
			Drafted:     met.SpecDrafted.Value(),
			Accepted:    met.SpecAccepted.Value(),
			TokensMatch: match,
		}
		if arm.Drafted > 0 {
			arm.AcceptanceRate = float64(arm.Accepted) / float64(arm.Drafted)
		}
		res.Arms = append(res.Arms, arm)
	}
	return res
}

// BatchingTable renders the iteration-batching comparison.
func BatchingTable(res BatchingResult) *Table {
	t := &Table{
		Title:  "Serving: one session per iteration vs cross-session iterations",
		Header: []string{"row budget", "wall (s)", "tokens/s", "TTFT p50 (s)", "TTFT p95 (s)"},
	}
	t.AddRow("0", fmt.Sprintf("%.3f", res.WorkerSec),
		fmt.Sprintf("%.1f", res.WorkerTokSec),
		fmt.Sprintf("%.4f", res.WorkerTTFT50), fmt.Sprintf("%.4f", res.WorkerTTFT95))
	t.AddRow("MaxBatchTokens", fmt.Sprintf("%.3f", res.BatchedSec),
		fmt.Sprintf("%.1f", res.BatchedTokSec),
		fmt.Sprintf("%.4f", res.BatchedTTFT50), fmt.Sprintf("%.4f", res.BatchedTTFT95))
	t.AddNote("%d sessions, %d tokens; %d iterations at %.1f rows mean occupancy; tokens match: %v",
		res.Sessions, res.TotalTokens, res.Iterations, res.Occupancy, res.TokensMatch)
	return t
}
