package main

import (
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"tokenpicker/internal/corpus"
	"tokenpicker/internal/train"
)

// toyEnv is the benchmark at toy size on the repo's micro test model, so the
// package test drives every workload, timed and traced, in a couple of
// seconds.
func toyEnv(t *testing.T, weights string, seed int64) *env {
	t.Helper()
	r := train.TestModel()
	if err := writeWeights(r.Params, weights); err != nil {
		t.Fatal(err)
	}
	cc := corpus.DefaultConfig(1)
	cc.VocabSize = r.Params.Cfg.VocabSize
	return &env{weights: weights, corpus: cc, skip: 4096, seed: seed, c: loadSize(), sz: toySizes()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames asserts that got holds exactly the metrics want names, with
// their units.
func checkNames(t *testing.T, where string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", where, len(got), len(want))
	}
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: bad metric name %q", where, m.Name)
		}
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", where, m.Name)
		case g.Unit != m.Unit || g.Unit == "":
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", where, m.Name, g.Unit, m.Unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %v", len(sp.Workloads), workloadNames)
	}
	weights := filepath.Join(t.TempDir(), "weights.bin")
	e := toyEnv(t, weights, 1)
	for i, wl := range workloadNames {
		if sp.Workloads[i].Name != wl {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, sp.Workloads[i].Name, wl)
		}
		timed, err := runTimed(e, wl, 0.02)
		if err != nil {
			t.Fatalf("%s timed: %v", wl, err)
		}
		traced, err := runTraced(e, wl, 0.02)
		if err != nil {
			t.Fatalf("%s traced: %v", wl, err)
		}
		for _, r := range []*result{timed, traced} {
			if !r.Correct || r.Failed > 0 || r.Attempted < 1 {
				t.Errorf("%s: correct %v, %d of %d failed: %v", wl, r.Correct, r.Failed, r.Attempted, r.notes)
			}
		}
		checkNames(t, wl+" timed", timed.Metrics, sp.EndToEnd)
		checkNames(t, wl+" traced", traced.Metrics, sp.PerLayer)

		// Counts repeat exactly for a seed, in a second run and in the traced run.
		again, err := runTimed(e, wl, 0.02)
		if err != nil {
			t.Fatalf("%s timed again: %v", wl, err)
		}
		for _, name := range []string{"kv_bytes_reduction_x", "ppl_ratio"} {
			if a, b := timed.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: %s is %v, then %v with the same seed", wl, name, a, b)
			}
		}
		if a, b := timed.Metrics["kv_bytes_reduction_x"].Value, traced.Metrics["attention.kv_bytes_reduction_x"].Value; a != b {
			t.Errorf("%s: kv_bytes_reduction_x is %v timed and %v traced", wl, a, b)
		}
	}
}

func TestSeedChangesTheRequests(t *testing.T) {
	weights := filepath.Join(t.TempDir(), "weights.bin")
	a, b := toyEnv(t, weights, 1), toyEnv(t, weights, 2)
	same := slices.Equal[[]int]
	if same(newDecodeLoad(a, 8, 16, 2, 1, 1).seqs[0], newDecodeLoad(b, 8, 16, 2, 1, 1).seqs[0]) {
		t.Error("decode sequences do not depend on the seed")
	}
	if same(newHTTPLoad(a).reqs[0].prompt, newHTTPLoad(b).reqs[0].prompt) {
		t.Error("http_shared requests do not depend on the seed")
	}
	if same(newBurstLoad(a).waves[0][0].prompt, newBurstLoad(b).waves[0][0].prompt) {
		t.Error("burst_mixed requests do not depend on the seed")
	}
	if !same(newHTTPLoad(a).reqs[3].prompt, newHTTPLoad(a).reqs[3].prompt) {
		t.Error("http_shared requests differ between two generations of one seed")
	}
}

func TestSpecMeetsTheContract(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.05}
	higher := specMetric{Name: "gen_tok_s", Better: "higher", Bound: 0.05}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.995, Q3: m * 1.005} }
	for _, c := range []struct {
		m        specMetric
		old, cur summary
		want     string
	}{
		{lower, tight(100), tight(103), "ok"},
		{lower, tight(100), tight(108), "regressed"},
		{lower, tight(100), tight(80), "ok"},
		{higher, tight(100), tight(92), "regressed"},
		{higher, tight(100), tight(120), "ok"},
		{lower, tight(100), summary{Median: 108, Q1: 100, Q3: 116}, "unresolved"},
	} {
		if _, got := verdict(c.m, c.old, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.m.Name, c.old.Median, c.cur.Median, got, c.want)
		}
	}
}
