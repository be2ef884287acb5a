// Command benchmark is the repo's measurement spine: four workloads, the
// end-to-end metrics a caller of the system sees, and per-layer numbers from
// a traced run. BENCHMARK.json at the repo root names every metric and
// workload; README.md in this directory explains them.
//
// Run from the repo root through run.sh, which builds this package:
//
//	bash benchmark/run.sh -seed 1                        whole suite, readable table
//	bash benchmark/run.sh --workload decode_long --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -repeat 3 -out new.json        medians and quartiles
//	bash benchmark/run.sh -compare old.json new.json     regression verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		wl      = flag.String("workload", "", "run one workload and print its result object as the last line (empty = whole suite)")
		seed    = flag.Int64("seed", 1, "workload seed: same seed, same requests")
		seconds = flag.Float64("seconds", 0, "how long one run measures (0 = run_seconds from BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0 = timed run, end-to-end metrics; 1 = traced run, per-layer metrics")
		repeat  = flag.Int("repeat", 3, "suite: run everything this many times and report medians and quartiles")
		out     = flag.String("out", "benchmark/out/suite.json", "suite: where to write the record")
		compare = flag.Bool("compare", false, "compare two suite records: -compare old.json new.json")
		train   = flag.String("train", "", "internal: train the stand-in and write its weights to this path")
	)
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *trace, *repeat, *out, *compare, *train, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(wl string, seed int64, seconds float64, trace, repeat int, out string, compare bool, train string, args []string) error {
	if train != "" {
		return trainWeights(train)
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("%w (run from the repo root)", err)
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two suite records: old.json new.json")
		}
		return compareRecords(sp, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	if wl == "" {
		return suite(sp, seed, seconds, repeat, out)
	}
	e, err := fullEnv(seed)
	if err != nil {
		return err
	}
	var res *result
	if trace == 0 {
		res, err = runTimed(e, wl, seconds)
	} else {
		res, err = runTraced(e, wl, seconds)
	}
	if err != nil {
		return err
	}
	printTable(wl, trace, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
