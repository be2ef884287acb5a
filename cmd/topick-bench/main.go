// Command topick-bench measures the decode-step hot path and persists the
// results as the repo's performance trajectory. It runs the same benchmark
// bodies as `go test -bench BenchmarkDecodeStep` through testing.Benchmark,
// compares the incremental quantized-KV cache against the from-scratch
// baseline and the head-parallel pool executor against serial execution,
// runs the shared-prefix serving arm (prefix-cache hit rate, TTFT, and
// prefill compute with sharing on vs off) and the replica-fleet arm (single
// engine vs N replicas behind prefix-affinity routing), and writes a JSON
// record future PRs regress against:
//
//	make bench            # writes BENCH_decode.json at the repo root
//	go run ./cmd/topick-bench -contexts 128,512,1024 -out my.json
//	go run ./cmd/topick-bench -parallel 8 -par-heads 8,16 -par-context 512
//	go run ./cmd/topick-bench -serving=false    # skip the serving arm
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tokenpicker/internal/bench"
	xexec "tokenpicker/internal/exec"
	"tokenpicker/internal/train"
)

type report struct {
	Note      string `json:"note"`
	Unit      string `json:"unit"`
	Timestamp string `json:"timestamp"`
	// GitSHA stamps the commit the numbers were measured at ("unknown"
	// outside a git checkout), GOMAXPROCS the parallelism the run actually
	// had — both required to compare BENCH_decode.json across PRs.
	GitSHA     string `json:"git_sha"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUs       int    `json:"cpus"` // cores visible to the run; pool speedups are bounded by this
	// Warning flags records whose parallel arms are not meaningful — set
	// when the run saw a single CPU, where pool and batching speedups
	// honestly measure pure overhead (~1.0x) rather than the win.
	Warning string                   `json:"warning,omitempty"`
	Results []bench.DecodeStepResult `json:"results"`
	// Speedup maps "kernel/ctx=N" to scratch-ns / incremental-ns for the
	// quantizing kernels (the measured win of the incremental cache) and
	// "kernel/heads=H/ctx=N/pool=W" to serial-ns / pool-ns (the measured
	// win of the head-parallel executor; ~1.0 on a single-core host).
	Speedup map[string]float64 `json:"speedup"`
	// Serving is the shared-prefix serving arm: prefix-cache hit rate,
	// TTFT with sharing on/off, and the prefill compute saved.
	Serving *servingRecord `json:"serving,omitempty"`
	// Batching is the high-concurrency iteration-batching arm: one session
	// per iteration (row budget 0) vs cross-session token batching over the
	// same fleet.
	Batching *batchingRecord `json:"iteration_batching,omitempty"`
	// Speculative is the draft-and-verify arm: the same greedy fleet with
	// speculation off and once per draft source; every arm must emit the
	// baseline's exact token streams.
	Speculative *speculativeRecord `json:"speculative,omitempty"`
	// Fleet is the replica-fleet serving arm: the same shared-system-prompt
	// tenant traffic on one engine and on N replicas behind prefix-affinity
	// routing; the streams must stay bit-identical.
	Fleet *fleetRecord `json:"fleet,omitempty"`
}

// servingRecord persists the shared-prefix serving comparison.
type servingRecord struct {
	Sessions           int     `json:"sessions"`
	PrefixLen          int     `json:"prefix_len"`
	PrefixHitRate      float64 `json:"prefix_hit_rate"`
	RowsReused         int64   `json:"kv_rows_reused"`
	TTFTSharedMs       float64 `json:"ttft_shared_ms"`
	TTFTUnsharedMs     float64 `json:"ttft_unshared_ms"`
	TTFTReduction      float64 `json:"ttft_reduction"`
	PromptToksShared   int64   `json:"prefill_tokens_shared"`
	PromptToksUnshared int64   `json:"prefill_tokens_unshared"`
	PrefillSavings     float64 `json:"prefill_savings"`
	TokensMatch        bool    `json:"tokens_match"`
}

// batchingRecord persists the iteration-batching serving comparison.
type batchingRecord struct {
	Sessions        int     `json:"sessions"`
	MaxBatchTokens  int     `json:"max_batch_tokens"`
	WorkerTokSec    float64 `json:"worker_tokens_per_sec"`
	BatchedTokSec   float64 `json:"batched_tokens_per_sec"`
	WorkerTTFT50Ms  float64 `json:"worker_ttft_p50_ms"`
	WorkerTTFT95Ms  float64 `json:"worker_ttft_p95_ms"`
	BatchedTTFT50Ms float64 `json:"batched_ttft_p50_ms"`
	BatchedTTFT95Ms float64 `json:"batched_ttft_p95_ms"`
	Occupancy       float64 `json:"batch_occupancy_rows"`
	Iterations      int64   `json:"batch_iterations"`
	TokensMatch     bool    `json:"tokens_match"`
}

// speculativeRecord persists the speculative-decoding serving comparison.
type speculativeRecord struct {
	Sessions       int               `json:"sessions"`
	K              int               `json:"speculate_k"`
	BaselineTokSec float64           `json:"baseline_tokens_per_sec"`
	Arms           []specDraftRecord `json:"drafts"`
}

// fleetRecord persists the replica-fleet serving comparison.
type fleetRecord struct {
	Replicas        int       `json:"replicas"`
	Sessions        int       `json:"sessions"`
	TenantGroups    int       `json:"tenant_groups"`
	SingleTokSec    float64   `json:"single_tokens_per_sec"`
	FleetTokSec     float64   `json:"fleet_tokens_per_sec"`
	Speedup         float64   `json:"speedup"`
	RoutedAffinity  int64     `json:"routed_affinity"`
	RoutedSpilled   int64     `json:"routed_spilled"`
	RoutedBalanced  int64     `json:"routed_balanced"`
	ReplicaHitRates []float64 `json:"replica_prefix_hit_rates"`
	TokensMatch     bool      `json:"tokens_match"`
	// Warning carries the single-CPU stamp under the same convention as the
	// top-level field (assigned unconditionally from the current run's core
	// count): on one core the fleet "speedup" honestly measures router and
	// replication overhead, not parallel serving gain.
	Warning string `json:"warning,omitempty"`
}

type specDraftRecord struct {
	Draft          string  `json:"draft"`
	TokSec         float64 `json:"tokens_per_sec"`
	Speedup        float64 `json:"speedup"`
	Drafted        int64   `json:"drafted_tokens"`
	Accepted       int64   `json:"accepted_tokens"`
	AcceptanceRate float64 `json:"acceptance_rate"`
	TokensMatch    bool    `json:"tokens_match"`
}

// warningFor recomputes the single-CPU warning from the CURRENT run's core
// count. It must be assigned unconditionally: a stale warning merged in from
// an earlier single-core record would otherwise survive into a multi-core
// run's JSON (and vice versa — a multi-core record must lose the flag).
func warningFor(cpus int) string {
	if cpus == 1 {
		return "single-CPU run: pool-executor and iteration-batching " +
			"speedups measure scheduling overhead, not parallel gain"
	}
	return ""
}

func parseInts(s, flagName string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "topick-bench: bad %s %q\n", flagName, f)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

// gitSHA resolves the short commit hash of the working tree, "unknown" when
// git or the repository is unavailable (the record must still be written).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if sha == "" {
		return "unknown"
	}
	return sha
}

func main() {
	out := flag.String("out", "BENCH_decode.json", "output JSON path")
	contexts := flag.String("contexts", "128,512", "comma-separated context lengths")
	parallel := flag.Int("parallel", 0, "pool-executor width for the head-parallel arm (0 = NumCPU)")
	parHeads := flag.String("par-heads", "8,16", "head counts for the head-parallel arm")
	parCtx := flag.Int("par-context", 512, "context length for the head-parallel arm")
	serving := flag.Bool("serving", true, "also run the shared-prefix serving arm (trains the demo model)")
	flag.Parse()

	ctxs := parseInts(*contexts, "context")
	heads := parseInts(*parHeads, "par-heads")
	// The comparison arm always runs a real pool (width >= 2) so the
	// serial/pool columns both exist; on a single-core host the pool row
	// honestly measures pure executor overhead (speedup ~1.0).
	width := xexec.ResolveWidth(*parallel)
	if width < 2 {
		width = 2
	}

	rep := report{
		Note: "decode-step hot path: one generation step through the full decoder " +
			"(attention + FFN) per kernel; scratch mode re-quantizes the whole KV " +
			"cache every attention call (the pre-incremental behaviour; an upper " +
			"bound on it for spatten, which used to quantize only surviving rows), " +
			"incremental mode uses the cache-owned side-car; parallel=W rows run " +
			"the heads of each layer on a W-slot work-stealing pool executor",
		Unit:       "ns per generated token",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GitSHA:     gitSHA(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
		Speedup:    map[string]float64{},
	}
	rep.Warning = warningFor(rep.CPUs)
	if rep.Warning != "" {
		fmt.Fprintf(os.Stderr, "topick-bench: warning: %s\n", rep.Warning)
	}

	// Arm 1: incremental vs from-scratch quantization (serial executor).
	scratchNs := map[string]float64{}
	for _, kernel := range bench.DecodeKernels() {
		for _, ctx := range ctxs {
			modes := []bool{false}
			for _, quant := range bench.QuantizedDecodeKernels() {
				if quant == kernel {
					modes = append(modes, true)
				}
			}
			for _, scratch := range modes {
				r := bench.RunDecodeStep(kernel, ctx, scratch)
				rep.Results = append(rep.Results, r)
				fmt.Printf("%-16s ctx=%-5d heads=%-3d par=%-3d %-11s %12.0f ns/tok %10.0f tok/s %4d allocs/op\n",
					r.Kernel, r.Context, r.Heads, r.Parallel, r.Mode, r.NsPerToken, r.TokensPerSec, r.AllocsPerOp)
				if scratch {
					scratchNs[fmt.Sprintf("%s/ctx=%d", kernel, ctx)] = r.NsPerToken
				}
			}
		}
	}
	for _, r := range rep.Results {
		if r.Mode != "incremental" {
			continue
		}
		key := fmt.Sprintf("%s/ctx=%d", r.Kernel, r.Context)
		if s, ok := scratchNs[key]; ok {
			rep.Speedup[key] = s / r.NsPerToken
		}
	}

	// Arm 2: serial vs head-parallel pool executor at wider head counts.
	for _, kernel := range bench.DecodeKernels() {
		for _, h := range heads {
			var serialNs float64
			for _, w := range []int{1, width} {
				r := bench.RunDecodeStepSpec(bench.DecodeBenchSpec{
					Kernel: kernel, Context: *parCtx, Heads: h, Parallel: w,
				})
				rep.Results = append(rep.Results, r)
				fmt.Printf("%-16s ctx=%-5d heads=%-3d par=%-3d %-11s %12.0f ns/tok %10.0f tok/s %4d allocs/op\n",
					r.Kernel, r.Context, r.Heads, r.Parallel, r.Mode, r.NsPerToken, r.TokensPerSec, r.AllocsPerOp)
				if w == 1 {
					serialNs = r.NsPerToken
				} else if serialNs > 0 {
					key := fmt.Sprintf("%s/heads=%d/ctx=%d/pool=%d", kernel, h, *parCtx, w)
					rep.Speedup[key] = serialNs / r.NsPerToken
				}
			}
		}
	}

	for key, s := range rep.Speedup {
		fmt.Printf("speedup %-40s %.2fx\n", key, s)
	}

	// Arm 3: shared-prefix serving — prefix-cache hit rate, TTFT, and
	// prefill compute with sharing on vs off.
	if *serving {
		fmt.Println("serving arm: training demo model...")
		res := bench.ComparePrefixServing(train.TestModel(), bench.DefaultPrefixServingOptions())
		rep.Serving = &servingRecord{
			Sessions:           res.Sessions,
			PrefixLen:          res.PrefixLen,
			PrefixHitRate:      res.HitRate,
			RowsReused:         res.RowsReused,
			TTFTSharedMs:       res.SharedTTFT * 1e3,
			TTFTUnsharedMs:     res.UnsharedTTFT * 1e3,
			TTFTReduction:      res.TTFTReduction(),
			PromptToksShared:   res.SharedPromptToks,
			PromptToksUnshared: res.UnsharedPromptToks,
			PrefillSavings:     res.PrefillSavings(),
			TokensMatch:        res.TokensMatch,
		}
		fmt.Printf("serving: prefix hit rate %.0f%%, prefill %.1fx less, TTFT %.1fx lower, tokens match %v\n",
			100*res.HitRate, res.PrefillSavings(), res.TTFTReduction(), res.TokensMatch)
	}

	// Arm 4: iteration-level batching — the same high-concurrency
	// mixed-length fleet at row budget 0 (one session per iteration) and with
	// cross-session token batching; the two must emit identical tokens.
	if *serving {
		fmt.Println("iteration-batching arm: running fleet twice...")
		res := bench.CompareIterationBatching(train.TestModel(), bench.DefaultBatchingOptions())
		rep.Batching = &batchingRecord{
			Sessions:        res.Sessions,
			MaxBatchTokens:  bench.DefaultBatchingOptions().MaxBatchTokens,
			WorkerTokSec:    res.WorkerTokSec,
			BatchedTokSec:   res.BatchedTokSec,
			WorkerTTFT50Ms:  res.WorkerTTFT50 * 1e3,
			WorkerTTFT95Ms:  res.WorkerTTFT95 * 1e3,
			BatchedTTFT50Ms: res.BatchedTTFT50 * 1e3,
			BatchedTTFT95Ms: res.BatchedTTFT95 * 1e3,
			Occupancy:       res.Occupancy,
			Iterations:      res.Iterations,
			TokensMatch:     res.TokensMatch,
		}
		fmt.Printf("batching: %.1f vs %.1f tok/s, occupancy %.1f rows over %d iterations, tokens match %v\n",
			res.WorkerTokSec, res.BatchedTokSec, res.Occupancy, res.Iterations, res.TokensMatch)
	}

	// Arm 5: speculative decoding — the same greedy fleet without drafting
	// and once per draft source; acceptance rate and throughput per arm, and
	// every arm must reproduce the baseline token streams exactly.
	if *serving {
		fmt.Println("speculative arm: running fleet per draft source...")
		res := bench.CompareSpeculative(train.TestModel(), bench.DefaultSpeculativeOptions())
		rec := &speculativeRecord{
			Sessions:       res.Sessions,
			K:              res.K,
			BaselineTokSec: res.BaselineTokSec,
		}
		for _, a := range res.Arms {
			rec.Arms = append(rec.Arms, specDraftRecord{
				Draft:          a.Draft,
				TokSec:         a.TokSec,
				Speedup:        a.Speedup,
				Drafted:        a.Drafted,
				Accepted:       a.Accepted,
				AcceptanceRate: a.AcceptanceRate,
				TokensMatch:    a.TokensMatch,
			})
			fmt.Printf("speculative: draft=%-8s %.1f tok/s (%.2fx), acceptance %.0f%% (%d/%d), tokens match %v\n",
				a.Draft, a.TokSec, a.Speedup, 100*a.AcceptanceRate, a.Accepted, a.Drafted, a.TokensMatch)
		}
		rep.Speculative = rec
	}

	// Arm 6: replica fleet — the same tenant traffic on one engine and on a
	// fleet with prefix-affinity routing; aggregate throughput, the router's
	// decision mix, per-replica hit rates, and bit-exactness.
	if *serving {
		fmt.Println("fleet arm: running traffic on single engine and replica fleet...")
		res := bench.CompareFleetServing(train.TestModel(), bench.DefaultFleetServingOptions())
		rep.Fleet = &fleetRecord{
			Replicas:        res.Replicas,
			Sessions:        res.Sessions,
			TenantGroups:    res.Groups,
			SingleTokSec:    res.SingleTokS,
			FleetTokSec:     res.FleetTokS,
			Speedup:         res.Speedup(),
			RoutedAffinity:  res.Routing.Affinity,
			RoutedSpilled:   res.Routing.Spilled,
			RoutedBalanced:  res.Routing.Balanced,
			ReplicaHitRates: res.HitRates,
			TokensMatch:     res.TokensMatch,
			Warning:         warningFor(rep.CPUs),
		}
		fmt.Printf("fleet: %.1f vs %.1f tok/s (%.2fx), routing %d/%d/%d affinity/spill/balance, tokens match %v\n",
			res.SingleTokS, res.FleetTokS, res.Speedup(),
			res.Routing.Affinity, res.Routing.Spilled, res.Routing.Balanced, res.TokensMatch)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "topick-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "topick-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d results)\n", *out, len(rep.Results))
}
