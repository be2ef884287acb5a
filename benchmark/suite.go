package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// record is what the suite writes: where and how it ran, every run's result
// object, and per workload × metric the median and quartiles over the
// repetitions.
type record struct {
	Stamp   stamp                         `json:"stamp"`
	Runs    []runRecord                   `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"` // workload → metric
}

type stamp struct {
	GitSHA     string  `json:"git_sha"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Repeat     int     `json:"repeat"`
	LoadSize   int     `json:"load_size_c"`
	Sizes      string  `json:"sizes"`
	Time       string  `json:"time"`
	Warning    string  `json:"warning,omitempty"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Rep      int    `json:"rep"`
	Result   result `json:"result"`
}

type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// suite runs every workload repeat times, timed then traced, each run in a
// fresh child process (so GC and cache state do not leak between workloads
// and peak RSS is per workload), prints every metric, writes the record and
// fails when an output was wrong or a count differs between a seed's timed
// and traced run.
func suite(sp *spec, seed int64, seconds float64, repeat int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rec := record{Stamp: newStamp(seed, seconds, repeat), Summary: map[string]map[string]summary{}}
	fmt.Printf("# suite: seed %d, %g s per run, %d repetition(s); closed loops, C = %d callers; %s\n",
		seed, seconds, repeat, rec.Stamp.LoadSize, rec.Stamp.Sizes)
	if rec.Stamp.Warning != "" {
		fmt.Println("# WARNING:", rec.Stamp.Warning)
	}
	var bad []string
	for rep := 1; rep <= repeat; rep++ {
		for _, wl := range workloadNames {
			var pair [2]result
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(exe, "--workload", wl, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s trace %d: %w", wl, trace, err)
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s trace %d: result line: %w", wl, trace, err)
				}
				if !res.Correct || res.Failed > 0 {
					bad = append(bad, fmt.Sprintf("%s trace %d rep %d: correct %v, %d of %d failed", wl, trace, rep, res.Correct, res.Failed, res.Attempted))
				}
				pair[trace] = res
				rec.Runs = append(rec.Runs, runRecord{Workload: wl, Trace: trace, Rep: rep, Result: res})
			}
			if a, b := pair[0].Metrics["kv_bytes_reduction_x"].Value, pair[1].Metrics["attention.kv_bytes_reduction_x"].Value; a != b {
				bad = append(bad, fmt.Sprintf("%s rep %d: kv_bytes_reduction_x is %v timed and %v traced", wl, rep, a, b))
			}
		}
	}
	for _, wl := range workloadNames {
		rec.Summary[wl] = map[string]summary{}
		vals := map[string][]float64{}
		unit := map[string]string{}
		for _, r := range rec.Runs {
			if r.Workload != wl {
				continue
			}
			for name, m := range r.Result.Metrics {
				vals[name] = append(vals[name], m.Value)
				unit[name] = m.Unit
			}
		}
		for name, xs := range vals {
			rec.Summary[wl][name] = summary{Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs), Unit: unit[name]}
		}
	}
	printSummary(sp, &rec)
	if err := writeJSON(out, &rec); err != nil {
		return err
	}
	fmt.Println("# record written to", out)
	if len(bad) > 0 {
		return fmt.Errorf("suite failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

func newStamp(seed int64, seconds float64, repeat int) stamp {
	s := stamp{
		GitSHA: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Seed: seed, Seconds: seconds, Repeat: repeat, LoadSize: loadSize(),
		Sizes: fmt.Sprintf("%+v", fullSizes()), Time: time.Now().UTC().Format(time.RFC3339),
	}
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.GitSHA = strings.TrimSpace(string(sha))
	}
	if s.NProc < 2 {
		s.Warning = "nproc < 2: clients, handlers and decode workers share one core; serving numbers are not comparable with multi-core records"
	}
	return s
}

// printSummary prints, per workload, the end-to-end metrics first (with
// their bounds) and then the per-layer ones: median [q1, q3] unit n.
func printSummary(sp *spec, rec *record) {
	for _, wl := range workloadNames {
		fmt.Printf("\n== %s ==\n", wl)
		for _, group := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			for _, m := range group {
				s, ok := rec.Summary[wl][m.Name]
				if !ok {
					continue
				}
				bound := ""
				if m.Bound > 0 {
					bound = fmt.Sprintf("  (%s is better, bound %.1f%%)", m.Better, 100*m.Bound)
				}
				fmt.Printf("%-34s %14.4f [%.4f, %.4f] %-7s n=%d%s\n", m.Name, s.Median, s.Q1, s.Q3, s.Unit, s.N, bound)
			}
		}
	}
	fmt.Println("\nBytes are computed from tensor sizes, not measured traffic. sim.* is simulated time of an")
	fmt.Println("accelerator model that is unvalidated against hardware (the paper reports 2.3x speed-up,")
	fmt.Println("2.4x energy, 2.6x fewer off-chip accesses).")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(bytes.TrimRight(b, "\n"), '\n'), 0o644)
}
