// Package equiv states the repo's bit-exactness claim once. A Point picks
// one value on every axis of the equivalence lattice below; drive maps it to
// an Outcome (per-request token streams, a logits hash where the engine
// exposes logits, usage counters), and every Outcome must equal the bottom
// point's: a serial library decoder on dense storage, no speculation, the
// same sampler chain. The package has only test files.
package equiv

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// Axis indices into Point.
const (
	axModel = iota
	axEngine
	axKernel
	axStore
	axExec
	axWorkers
	axSpec
	axShare
	axPressure
	axReplicas
	axSampling
	numAxes
)

// axes is the lattice. Each value's first entry is the bottom (reference)
// value; spec strings name axes and values exactly as written here.
var axes = [numAxes]struct {
	name   string
	values []string
}{
	// trained: train.TestModel (2 heads); parallel: random 8 heads, so
	// pool widths 3 and 8 do not divide the head count.
	axModel:  {"model", []string{"trained", "parallel"}},
	axEngine: {"engine", []string{"library", "server", "fleet"}},
	axKernel: {"kernel", []string{"exact", "quantized-exact", "token-picker", "oracle", "spatten"}},
	// pagedN: a block-paged pool with N-row blocks (the server's BlockRows).
	axStore: {"store", []string{"dense", "paged4", "paged5", "paged8", "paged16", "paged32"}},
	// The library decoder's Exec. A serving runner has no executor of its
	// own: it steps on the shared pool when it is the process's only runner
	// mid-iteration and serially otherwise, written shared.
	axExec:    {"exec", []string{"serial", "shared", "pool2", "pool3", "pool8"}},
	axWorkers: {"workers", []string{"1", "2", "3"}},
	// A speculating point drafts n-grams (model.NgramDraft).
	axSpec: {"spec", []string{"0", "2", "4", "8"}},
	// on: prefix sharing; the later waves adopt the first's blocks.
	axShare: {"share", []string{"off", "on"}},
	// tight: MaxBlocks fits one session and a spare block row, MaxPreempts
	// 128; exact: the same without the spare row.
	axPressure: {"pressure", []string{"none", "tight", "exact"}},
	axReplicas: {"replicas", []string{"1", "2", "4"}},
	// seeded: the temperature/top-k/top-p/penalty chain, one seed per request.
	axSampling: {"sampling", []string{"greedy", "seeded"}},
}

// rules constrain the lattice: a point matching a rule's "when" must match
// its "then".
var rules = []struct{ when, then string }{
	// SpAtten accumulates per-sequence state: library only, never drafted.
	{"kernel=spatten", "engine=library spec=0"},
	// Scheduling axes exist only behind the serving loop.
	{"engine=library", "workers=1 share=off pressure=none replicas=1"},
	// Servers store KV in their pool, and their runners ride the shared pool.
	{"engine=server|fleet", "store=paged4|paged5|paged8|paged16|paged32 exec=shared"},
	{"engine=server", "replicas=1"},
}

// regressions are the axis tuples the hand-rolled serving tests this lattice
// replaced ran, as products (axis=a|b), and the points that found bugs;
// unnamed axes sit at the bottom.
// TestIterationBatchingBitExact, TestSpeculativeServingBitExact and
// TestSamplingDeterministicAcrossEngines still run in internal/serve too
// (ROADMAP item 6).
var regressions = []string{
	// The head-parallel serving test: runners hop sessions between the
	// shared pool and serial steps.
	"engine=server kernel=token-picker store=paged16 exec=shared workers=3",
	// TestIterationBatchingPreemptionChurnBitExact: churn mid-batch.
	"engine=server kernel=token-picker store=paged8 exec=shared workers=2 share=on pressure=tight",
	// The head-parallel pool-recycling test: recycled blocks, quantized side-car.
	"engine=server kernel=quantized-exact store=paged4 exec=shared workers=3 pressure=tight",
	// TestServerPrefixSharingMatchesUnshared: publisher wave, then adopters.
	"engine=server kernel=token-picker store=paged32 exec=shared workers=2 share=off|on",
	// TestIterationBatchingBitExact: every serving kernel, two or three
	// runners, chunked prefill, adopters mid-wave.
	"engine=server kernel=exact|quantized-exact|token-picker|oracle store=paged16 exec=shared workers=2|3 share=on",
	// TestSpeculativeServingBitExact: verify entries on every serving
	// kernel, with rollbacks inside a block and across 4-row blocks.
	"engine=server kernel=exact|quantized-exact|token-picker|oracle store=paged16|paged4 exec=shared workers=2 spec=4 share=on",
	// TestSpeculativeServingSeededBitExact: the seeded chain across the
	// speculation boundary.
	"engine=server kernel=exact store=paged16|paged4 exec=shared workers=2 spec=4 sampling=seeded",
	// TestSpeculativeDecodeSeededBitExact: a library verify pass consumes
	// the sampler's RNG once per emitted token.
	"engine=library kernel=exact exec=serial spec=4 sampling=seeded",
	// TestSamplingDeterministicAcrossEngines: the seeded chain served from
	// the paged pool, with and without adopted prefixes.
	"engine=server kernel=quantized-exact store=paged16 exec=shared workers=2 share=off|on sampling=seeded",
	// Found by the lattice: two sessions that resumed into each other's room
	// preempted each other until both preemption budgets were spent, and
	// one finished rejected (Server.canResume now waits for a finish).
	"model=parallel engine=server kernel=token-picker store=paged32 exec=shared share=on pressure=tight",
	"engine=fleet kernel=oracle store=paged16 exec=shared spec=4 share=on pressure=tight replicas=2",
	// Found by the lattice: a session alone in a pool sized exactly to its
	// rows was rejected, because its first generated row needed a copy of
	// its own published tail block (the index now lets go of the tail).
	"model=parallel engine=fleet kernel=exact store=paged32 exec=shared workers=2 share=on pressure=exact replicas=1 sampling=seeded",
}

// Point is one configuration: a value index per axis (-1 = unset while a
// point is being built).
type Point [numAxes]int

func (p Point) value(axis int) string { return axes[axis].values[p[axis]] }

// String is the subtest name: every axis, in table order.
func (p Point) String() string {
	parts := make([]string, numAxes)
	for a := range p {
		parts[a] = axes[a].name + "=" + p.value(a)
	}
	return strings.Join(parts, ",")
}

// cond is one "axis=a|b" term: the axis holds one of the listed values.
type cond struct {
	axis int
	ok   []bool
}

func (c cond) holds(p Point) bool { return c.ok[p[c.axis]] }

// parseSpec parses space-separated "axis=a|b" terms; it panics on a name
// that is not in the table.
func parseSpec(spec string) []cond {
	var out []cond
	for _, term := range strings.Fields(spec) {
		name, vals, _ := strings.Cut(term, "=")
		axis := axisIndex(name)
		c := cond{axis: axis, ok: make([]bool, len(axes[axis].values))}
		for _, v := range strings.Split(vals, "|") {
			c.ok[valueIndex(axis, v)] = true
		}
		out = append(out, c)
	}
	return out
}

func axisIndex(name string) int {
	for a := range axes {
		if axes[a].name == name {
			return a
		}
	}
	panic("equiv: unknown axis " + name)
}

func valueIndex(axis int, v string) int {
	for i, w := range axes[axis].values {
		if w == v {
			return i
		}
	}
	panic(fmt.Sprintf("equiv: axis %s has no value %q", axes[axis].name, v))
}

type parsedRule struct{ when, then []cond }

var parsedRules = func() []parsedRule {
	out := make([]parsedRule, len(rules))
	for i, r := range rules {
		out[i] = parsedRule{parseSpec(r.when), parseSpec(r.then)}
	}
	return out
}()

// violates reports whether a (possibly partial) point breaks a rule: every
// "when" axis is set and holds, and some set "then" axis does not.
func violates(p Point) bool {
	for _, r := range parsedRules {
		fires := true
		for _, c := range r.when {
			fires = fires && p[c.axis] >= 0 && c.holds(p)
		}
		for _, c := range r.then {
			if fires && p[c.axis] >= 0 && !c.holds(p) {
				return true
			}
		}
	}
	return false
}

func unset() Point {
	var p Point
	for a := range p {
		p[a] = -1
	}
	return p
}

// completable reports whether p's unset axes can be filled so that every
// rule holds (a depth-first search).
func completable(p Point) bool {
	if violates(p) {
		return false
	}
	for a := range p {
		if p[a] >= 0 {
			continue
		}
		for v := range axes[a].values {
			q := p
			q[a] = v
			if completable(q) {
				return true
			}
		}
		return false
	}
	return true
}

// expand lists the valid points of a product spec, with every axis the spec
// does not name at its bottom value.
func expand(spec string) []Point {
	pts := []Point{{}}
	for _, c := range parseSpec(spec) {
		var next []Point
		for _, p := range pts {
			for v, ok := range c.ok {
				if ok {
					q := p
					q[c.axis] = v
					next = append(next, q)
				}
			}
		}
		pts = next
	}
	var out []Point
	for _, p := range pts {
		if !violates(p) {
			out = append(out, p)
		}
	}
	return out
}

// pairKey names one (axis, value) x (axis, value) pair, a < b.
type pairKey struct{ a, va, b, vb int }

// validPairs lists every pair of axis values some valid point contains.
func validPairs() []pairKey {
	var out []pairKey
	for a := 0; a < numAxes; a++ {
		for b := a + 1; b < numAxes; b++ {
			for va := range axes[a].values {
				for vb := range axes[b].values {
					p := unset()
					p[a], p[b] = va, vb
					if completable(p) {
						out = append(out, pairKey{a, va, b, vb})
					}
				}
			}
		}
	}
	return out
}

func pairsOf(p Point, visit func(pairKey)) {
	for a := 0; a < numAxes; a++ {
		for b := a + 1; b < numAxes; b++ {
			visit(pairKey{a, p[a], b, p[b]})
		}
	}
}

// coveringArray builds suite (b) greedily: seed each point with the first
// pair no point covers yet, then give every other axis the value that still
// admits a valid completion and covers the most new pairs with the axes
// already fixed.
func coveringArray() []Point {
	todo := map[pairKey]bool{}
	for _, k := range validPairs() {
		todo[k] = true
	}
	var out []Point
	for _, seed := range validPairs() {
		if !todo[seed] {
			continue
		}
		p := unset()
		p[seed.a], p[seed.b] = seed.va, seed.vb
		for a := range p {
			if p[a] >= 0 {
				continue
			}
			best, bestGain := -1, -1
			for v := range axes[a].values {
				q := p
				q[a] = v
				if !completable(q) {
					continue
				}
				gain := 0
				for b := range q {
					if b != a && q[b] >= 0 && todo[orderedPair(a, v, b, q[b])] {
						gain++
					}
				}
				if gain > bestGain {
					best, bestGain = v, gain
				}
			}
			p[a] = best
		}
		pairsOf(p, func(k pairKey) { delete(todo, k) })
		out = append(out, p)
	}
	return out
}

func orderedPair(a, va, b, vb int) pairKey {
	if a > b {
		a, va, b, vb = b, vb, a, va
	}
	return pairKey{a, va, b, vb}
}

// walk is suite (c): a seeded random walk that changes one axis per step
// and keeps each valid point it lands on.
func walk(seed int64, n int) []Point {
	rng := rand.New(rand.NewSource(seed))
	var p Point
	var out []Point
	for len(out) < n {
		q := p
		a := rng.Intn(numAxes)
		q[a] = rng.Intn(len(axes[a].values))
		if q != p && !violates(q) {
			p = q
			out = append(out, p)
		}
	}
	return out
}

// walkLen is suite (c)'s length: short under TOPICK_QUICK.
func walkLen() int {
	if os.Getenv("TOPICK_QUICK") != "" {
		return 4
	}
	return 16
}

// suites returns suite (a) (regression points) and (b) (all pairs).
func suites() (regress, pairs []Point) {
	for _, spec := range regressions {
		regress = append(regress, expand(spec)...)
	}
	return regress, coveringArray()
}

// TestEquivalenceLattice runs suites (a), (b) and (c), each distinct point
// once, and demands the reference Outcome from every one of them.
func TestEquivalenceLattice(t *testing.T) {
	regress, pairs := suites()
	seen := map[Point]bool{}
	for _, pts := range [][]Point{regress, pairs, walk(35, walkLen())} {
		for _, p := range pts {
			if seen[p] {
				continue
			}
			seen[p] = true
			t.Run(p.String(), func(t *testing.T) {
				defer func() {
					if t.Failed() {
						t.Logf("repro: go test ./internal/equiv -run '^TestEquivalenceLattice$/^%s$'", p)
					}
				}()
				got := drive(t, p)
				if msg := reference(t, p).diff(got); msg != "" {
					t.Fatal(msg)
				}
				checkOutcome(t, p, got)
			})
		}
	}
}

// coverageSentence is the README's statement of what TestEquivalenceLattice
// runs, built from the axis table.
func coverageSentence() string {
	names := make([]string, numAxes)
	for a := range axes {
		names[a] = axes[a].name
	}
	return "TestEquivalenceLattice runs every valid pair of " +
		strings.Join(names[:numAxes-1], ", ") + " and " + names[numAxes-1] +
		" values, plus today's matrices, against the serial dense reference."
}

// TestEquivalenceLatticeCoversAllPairs checks the coverage claim itself:
// every regression spec names a valid point, every point in suites (a) and
// (b) is valid, (a) and (b) together run every
// valid pair of axis values, every axis value is run by some point, and the
// README states the claim in the words coverageSentence builds.
func TestEquivalenceLatticeCoversAllPairs(t *testing.T) {
	for _, spec := range regressions {
		if len(expand(spec)) == 0 {
			t.Errorf("regression spec %q has no valid point", spec)
		}
	}
	regress, pairs := suites()
	covered := map[pairKey]bool{}
	used := map[[2]int]bool{}
	for _, pts := range [][]Point{regress, pairs} {
		for _, p := range pts {
			if violates(p) {
				t.Errorf("invalid point %s", p)
			}
			pairsOf(p, func(k pairKey) { covered[k] = true })
			for a, v := range p {
				used[[2]int{a, v}] = true
			}
		}
	}
	for _, k := range validPairs() {
		if !covered[k] {
			t.Errorf("no point runs %s=%s with %s=%s", axes[k.a].name, axes[k.a].values[k.va],
				axes[k.b].name, axes[k.b].values[k.vb])
		}
	}
	for a := range axes {
		for v, name := range axes[a].values {
			if !used[[2]int{a, v}] {
				t.Errorf("no point runs %s=%s", axes[a].name, name)
			}
		}
	}
	t.Logf("%d valid pairs: %d regression points + %d covering points", len(validPairs()), len(regress), len(pairs))

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(strings.Fields(strings.ReplaceAll(string(readme), "`", "")), " ")
	if want := coverageSentence(); !strings.Contains(text, want) {
		t.Errorf("README.md does not state the lattice's coverage; want the sentence:\n%s", want)
	}
}
