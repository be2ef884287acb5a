// Command topick-sim runs the cycle-level accelerator simulator on a
// synthetic attention workload — or on a recorded serving trace — and
// prints cycles, traffic, utilization, and the energy breakdown for each
// hardware configuration.
//
// With -trace, the workload is replayed from a JSONL lifecycle trace
// recorded by `topick-serve -trace-out` (or the serving benchmarks): every
// decode, replay, and prefill step in the trace becomes one attention
// instance at that step's real context length, so the simulator sees the
// context-length distribution of actual serving traffic instead of a fixed
// synthetic size (co-simulation under real serving traffic).
//
// Usage:
//
//	topick-sim -context 1024 -dim 64 -threshold 1e-3 -instances 8
//	topick-sim -trace trace.jsonl -trace-steps 256
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"text/tabwriter"

	"tokenpicker/internal/core"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/sim/arch"
)

func main() {
	var (
		context    = flag.Int("context", 1024, "cached tokens per instance")
		dim        = flag.Int("dim", 64, "head dimension")
		threshold  = flag.Float64("threshold", 1e-3, "pruning threshold")
		instances  = flag.Int("instances", 8, "attention instances to simulate")
		seed       = flag.Int64("seed", 1, "workload seed")
		peaked     = flag.Bool("peaked", true, "inject query-aligned keys (sharp softmax)")
		traceIn    = flag.String("trace", "", "replay a JSONL serving trace (topick-serve -trace-out) instead of the synthetic workload")
		traceSteps = flag.Int("trace-steps", 256, "cap on replayed trace steps (evenly subsampled; 0 = all)")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	var insts []arch.Instance
	if *traceIn != "" {
		insts = traceInstances(rng, *traceIn, *traceSteps, *dim, *peaked)
	} else {
		insts = make([]arch.Instance, *instances)
		for i := range insts {
			insts[i] = synthInstance(rng, *context, *dim, *peaked)
		}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "config\tcycles\tspeedup\tK bytes\tV bytes\tkept\tutil\tenergy (pJ)\tbreakdown")
	var baseCycles int64
	var baseEnergy float64
	for _, mode := range []arch.Mode{arch.ModeBaseline, arch.ModeProbEst, arch.ModeToPick, arch.ModeToPickInOrder} {
		sim := arch.MustNew(arch.DefaultConfig(mode, *threshold))
		var total arch.Result
		for _, inst := range insts {
			total.Accumulate(sim.RunInstance(inst))
		}
		if mode == arch.ModeBaseline {
			baseCycles = total.Cycles
			baseEnergy = total.Energy.Total()
		}
		fmt.Fprintf(w, "%v\t%d\t%.2fx\t%d\t%d\t%d/%d\t%.2f\t%.3g\t%s\n",
			mode, total.Cycles, float64(baseCycles)/float64(total.Cycles),
			total.KBytes, total.VBytes, total.Kept, total.N,
			total.Utilization(sim.Config().Lanes), total.Energy.Total(), total.Energy.String())
	}
	w.Flush()
	fmt.Printf("\nenergy efficiency of ToPick vs baseline: see table (baseline %.3g pJ)\n", baseEnergy)
}

// traceInstances loads a recorded serving trace and lowers its attention
// steps onto simulator instances: the key/query content is synthetic (the
// trace records shape, not tensors), but every instance's context length is
// one real step's KV row count, so the replay reproduces the serving
// workload's context-length distribution.
func traceInstances(rng *rand.Rand, path string, maxSteps, dim int, peaked bool) []arch.Instance {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topick-sim: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	events, err := obs.ParseTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topick-sim: %v\n", err)
		os.Exit(1)
	}
	// A ring-truncated trace (sessions missing their submit or finish) is
	// still a valid workload sample; a corrupt one is not.
	if err := obs.ValidateTimeline(events, true); err != nil {
		fmt.Fprintf(os.Stderr, "topick-sim: inconsistent trace: %v\n", err)
		os.Exit(1)
	}
	sum := obs.Summarize(events)
	steps := obs.ReplaySteps(events)
	if len(steps) == 0 {
		fmt.Fprintf(os.Stderr, "topick-sim: trace %s holds no attention steps\n", path)
		os.Exit(1)
	}
	total := len(steps)
	steps = obs.SampleEvenly(steps, maxSteps)
	fmt.Printf("trace %s: %d sessions, %d decode + %d replay steps, %d prefill chunks, peak batch %d\n",
		path, sum.Sessions, sum.DecodeSteps, sum.ReplaySteps, sum.PrefillChunks, sum.MaxBatch)
	fmt.Printf("replaying %d of %d steps (context rows %d max)\n\n", len(steps), total, sum.MaxRows)
	insts := make([]arch.Instance, 0, len(steps))
	for _, s := range steps {
		if s.Rows < 1 {
			continue
		}
		insts = append(insts, synthInstance(rng, int(s.Rows), dim, peaked))
	}
	return insts
}

// synthInstance builds one synthetic attention instance.
func synthInstance(rng *rand.Rand, n, dim int, peaked bool) arch.Instance {
	qf := make([]float32, dim)
	for i := range qf {
		qf[i] = float32(rng.NormFloat64())
	}
	kf := make([][]float32, n)
	maxMag := 0.0
	for i := 0; i < n; i++ {
		row := make([]float32, dim)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		if peaked && i%23 == 0 {
			for j := range row {
				row[j] += qf[j] * 1.5
			}
		}
		kf[i] = row
		for _, v := range row {
			if m := math.Abs(float64(v)); m > maxMag {
				maxMag = m
			}
		}
	}
	kScale := fixed.ScaleFor(maxMag, 12)
	kRows := make([]fixed.Vector, n)
	for i := range kf {
		kRows[i] = fixed.QuantizeWithScale(kf[i], 12, kScale).Data
	}
	bias := make([]float32, n)
	for i := range bias {
		bias[i] = -0.02 * float32(n-1-i)
	}
	return arch.Instance{
		In: core.Inputs{
			Q:      fixed.Quantize(qf, 12),
			K:      kRows,
			KScale: kScale,
			Scale:  1 / math.Sqrt(float64(dim)),
			Bias:   bias,
		},
		Dim: dim,
	}
}
