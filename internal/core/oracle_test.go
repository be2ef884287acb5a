package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tokenpicker/internal/fixed"
)

// oracleRun is the estimator's eager inner step, kept as the reference the
// decide-before-exponentiate, four-keys-per-pass, lazy-ln D step is checked
// against: token by token and chunk by chunk it extracts the chunk bit by
// bit, swaps the token's old exp(s_min) for the tightened one (one Exp),
// tests s_max against a freshly evaluated ln D (one Log), and subtracts the
// contribution again on a prune. Every per-token slice starts cleared.
func oracleRun(cfg Config, in Inputs) *Report { return oracleTrace(cfg, in, nil) }

// oracleTrace is oracleRun that also hands the left side of every float64
// prune test with a non-empty subset, s_max - ln D, to gap (when non-nil).
func oracleTrace(cfg Config, in Inputs, gap func(float64)) *Report {
	n := len(in.K)
	cs := cfg.Chunks
	numChunks := cs.NumChunks()
	rep := &Report{
		N:             n,
		PrunedAtChunk: make([]int8, n),
		Scores:        make([]float64, n),
		ChunkFetches:  make([]int64, numChunks),
	}
	for i := range rep.PrunedAtChunk {
		rep.PrunedAtChunk[i] = -1
	}
	m := fixed.NewMargins(cs, in.Q.Data)
	c := in.Scale * in.Q.Scale * in.KScale
	lnThr := math.Log(cfg.Threshold)
	partial := make([]int64, n)
	expMin := make([]float64, n)
	fxExp := make([]uint64, n)
	var df float64
	var dq uint64

	shouldPrune := func(smax float64) bool {
		if cfg.FixedPointExp {
			return fixed.FloatToQ16(smax)-fixed.LnFix(dq) <= fixed.FloatToQ16(lnThr)
		}
		if df <= 0 {
			return false
		}
		if gap != nil {
			gap(smax - math.Log(df))
		}
		return smax-math.Log(df) <= lnThr
	}
	// step returns true when token i is pruned at chunk b.
	step := func(i, b int) bool {
		for j, kv := range in.K[i] {
			partial[i] += int64(in.Q.Data[j]) * cs.ChunkContribution(cs.Extract(kv, b), b)
		}
		smin, smax := m.Interval(partial[i], b)
		var bias float64
		if in.Bias != nil {
			bias = float64(in.Bias[i])
		}
		sminF, smaxF := c*float64(smin)+bias, c*float64(smax)+bias
		if cfg.FixedPointExp {
			v := fixed.ExpFix(fixed.FloatToQ16(sminF))
			dq = fixed.AddSat(fixed.SubFloor(dq, fxExp[i]), v)
			fxExp[i] = v
		} else {
			v := math.Exp(sminF)
			df -= expMin[i]
			if df < 0 {
				df = 0
			}
			df += v
			expMin[i] = v
		}
		if b == numChunks-1 {
			rep.Scores[i] = smaxF
		}
		if cfg.Threshold > 0 && shouldPrune(smaxF) {
			rep.PrunedAtChunk[i] = int8(b)
			if !cfg.KeepPrunedInDenominator {
				dq = fixed.SubFloor(dq, fxExp[i])
				df -= expMin[i]
				if df < 0 {
					df = 0
				}
				expMin[i], fxExp[i] = 0, 0
			}
			return true
		}
		return false
	}

	e := MustNewEstimator(cfg)
	e.buildOrder(n)
	order := append([]int(nil), e.order...)
	if cfg.Schedule == ScheduleDepthFirst {
		for _, i := range order {
			for b := 0; b < numChunks; b++ {
				rep.ChunkFetches[b]++
				if step(i, b) {
					break
				}
			}
		}
	} else {
		active := order
		for b := 0; b < numChunks; b++ {
			rep.ChunkFetches[b] = int64(len(active))
			var next []int
			for _, i := range active {
				if !step(i, b) {
					next = append(next, i)
				}
			}
			active = next
		}
	}

	var sumF float64
	var sumQ uint64
	for i := 0; i < n; i++ {
		if rep.PrunedAtChunk[i] < 0 {
			sumF += expMin[i]
			sumQ = fixed.AddSat(sumQ, fxExp[i])
			rep.Kept = append(rep.Kept, i)
		}
	}
	if cfg.FixedPointExp {
		rep.LogDenominator = fixed.Q16ToFloat(fixed.LnFix(sumQ))
	} else {
		rep.LogDenominator = math.Log(sumF)
	}
	return rep
}

// specInstance builds an instance quantized at cs.TotalBits. Random
// instances are Gaussian with a mild ALiBi bias; peaked ones have a single
// key aligned with the query under a steep bias, so nearly every other
// token is pruned on its first chunk.
func specInstance(rng *rand.Rand, cs fixed.ChunkSpec, n, dim int, peaked bool) Inputs {
	qf := make([]float32, dim)
	for j := range qf {
		qf[j] = float32(rng.NormFloat64())
	}
	kf := make([][]float32, n)
	var maxMag float64
	hot := rng.Intn(n)
	for i := range kf {
		kf[i] = make([]float32, dim)
		for j := range kf[i] {
			kf[i][j] = float32(rng.NormFloat64())
			if peaked && i == hot {
				kf[i][j] += 3 * qf[j]
			}
			maxMag = math.Max(maxMag, math.Abs(float64(kf[i][j])))
		}
	}
	slope := float32(0.02)
	if peaked {
		slope = 0.1
	}
	in := Inputs{
		Q:      fixed.Quantize(qf, cs.TotalBits),
		K:      make([]fixed.Vector, n),
		KScale: fixed.ScaleFor(maxMag, cs.TotalBits),
		Scale:  1 / math.Sqrt(float64(dim)),
		Bias:   make([]float32, n),
	}
	for i := range kf {
		in.K[i] = fixed.QuantizeWithScale(kf[i], cs.TotalBits, in.KScale).Data
		in.Bias[i] = -slope * float32(n-1-i)
	}
	return in
}

// sameReport fails t unless rep is the oracle's want: the same kept set,
// prune chunks and fetch counts, bit-equal scores for kept tokens and a
// bit-equal denominator.
func sameReport(t *testing.T, name string, rep, want *Report) {
	t.Helper()
	if fmt.Sprint(rep.Kept) != fmt.Sprint(want.Kept) {
		t.Fatalf("%s: kept %v, oracle %v", name, rep.Kept, want.Kept)
	}
	if fmt.Sprint(rep.PrunedAtChunk) != fmt.Sprint(want.PrunedAtChunk) {
		t.Fatalf("%s: pruned-at %v, oracle %v", name, rep.PrunedAtChunk, want.PrunedAtChunk)
	}
	if fmt.Sprint(rep.ChunkFetches) != fmt.Sprint(want.ChunkFetches) {
		t.Fatalf("%s: chunk fetches %v, oracle %v", name, rep.ChunkFetches, want.ChunkFetches)
	}
	for _, i := range rep.Kept {
		if rep.Scores[i] != want.Scores[i] {
			t.Fatalf("%s: token %d score %g, oracle %g", name, i, rep.Scores[i], want.Scores[i])
		}
	}
	if rep.LogDenominator != want.LogDenominator {
		t.Fatalf("%s: ln D %g, oracle %g", name, rep.LogDenominator, want.LogDenominator)
	}
}

// TestStepMatchesOracle sweeps Order x Schedule x KeepPrunedInDenominator x
// FixedPointExp x chunk spec on random and peaked instances: four short ones
// (n in [96, 192)) and two long ones (n = 1029 and 1536, so waves run many
// four-key passes and end in remainder groups of every size). Against the
// eager step the report must be identical (sameReport). Separately, every
// pruned token's exact full-softmax probability must be at or below the
// threshold (the paper's guarantee; the fixed-point units get their rounding
// slack).
func TestStepMatchesOracle(t *testing.T) {
	specs := []fixed.ChunkSpec{
		fixed.DefaultChunkSpec,
		{TotalBits: 8, ChunkBits: 3}, // narrower last chunk
		{TotalBits: 15, ChunkBits: 5},
	}
	orders := []OrderPolicy{OrderPaper, OrderForward, OrderReverse}
	rng := rand.New(rand.NewSource(51))
	const thr = 1e-3
	var pruned, early int
	for _, cs := range specs {
		for _, order := range orders {
			for _, sched := range []Schedule{ScheduleWave, ScheduleDepthFirst} {
				for mode := 0; mode < 4; mode++ {
					cfg := Config{Chunks: cs, Threshold: thr, Order: order, Schedule: sched,
						KeepPrunedInDenominator: mode&1 != 0, FixedPointExp: mode&2 != 0}
					est := MustNewEstimator(cfg)
					var rep Report
					for trial, n := range []int{96, 96, 96, 96, 1029, 1536} {
						if n == 96 {
							n += rng.Intn(96)
						}
						in := specInstance(rng, cs, n, 32, trial%2 == 1)
						name := fmt.Sprintf("%+v trial %d n %d", cfg, trial, n)
						est.RunInto(&rep, in) // reused report and scratch, as the kernel does
						sameReport(t, name, &rep, oracleRun(cfg, in))

						slack := 1 + 1e-9
						if cfg.FixedPointExp {
							slack = 1.01
						}
						probs := trueProbs(in)
						for i, at := range rep.PrunedAtChunk {
							if at < 0 {
								continue
							}
							pruned++
							if at == 0 {
								early++
							}
							if probs[i] > thr*slack {
								t.Fatalf("%s: token %d pruned at chunk %d with true p=%g", name, i, at, probs[i])
							}
						}
					}
				}
			}
		}
	}
	// The sweep must actually exercise the early exit and the later chunks.
	if early == 0 || early == pruned {
		t.Fatalf("degenerate sweep: %d of %d prunes at chunk 0", early, pruned)
	}
}

// TestStepMatchesOracleAtTies drives the float64 prune test onto exact ties,
// where the bracket on ln D must hand the decision to math.Log. It records
// the oracle's own test values g = s_max - ln D at the default threshold,
// takes those closest to ln thr, and reruns at thr = exp(g) nudged by -2..2
// ulps, so that math.Log(thr) lands on g itself for some nudge. Every run
// must match the oracle (sameReport), and the sweep must reach exact ties.
func TestStepMatchesOracleAtTies(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	lnBase := math.Log(1e-3)
	var runs, ties int
	for trial := 0; trial < 6; trial++ {
		in := specInstance(rng, fixed.DefaultChunkSpec, 200+rng.Intn(400), 32, trial%2 == 1)
		var gaps []float64
		oracleTrace(DefaultConfig(1e-3), in, func(g float64) { gaps = append(gaps, g) })
		sort.Slice(gaps, func(a, b int) bool { return math.Abs(gaps[a]-lnBase) < math.Abs(gaps[b]-lnBase) })
		for _, g := range gaps[:min(len(gaps), 6)] {
			for nudge := -2; nudge <= 2; nudge++ {
				thr := math.Exp(g)
				for k := 0; k < nudge; k++ {
					thr = math.Nextafter(thr, 1)
				}
				for k := 0; k > nudge; k-- {
					thr = math.Nextafter(thr, 0)
				}
				lnThr := math.Log(thr)
				for _, sched := range []Schedule{ScheduleWave, ScheduleDepthFirst} {
					for _, keep := range []bool{false, true} {
						cfg := DefaultConfig(thr)
						cfg.Schedule, cfg.KeepPrunedInDenominator = sched, keep
						want := oracleTrace(cfg, in, func(g float64) {
							if g == lnThr {
								ties++
							}
						})
						name := fmt.Sprintf("trial %d thr %v %v keep %v", trial, thr, sched, keep)
						sameReport(t, name, MustNewEstimator(cfg).Run(in), want)
						runs++
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatalf("no exact tie in %d runs: the sweep never reached the fallback at a tie", runs)
	}
	t.Logf("%d runs, %d exact ties", runs, ties)
}

// TestDenomBracketMatchesLog checks the lazy ln D at the level of one test.
// Anchors A span e^±40; D = S lies anywhere in [A/4, 4A] (inside and outside
// the bracket's window), a few ulps from A, or a millionth from A. s_max is
// put within three ulps of where the answer can flip: the exact tie
// ln thr + math.Log(S) and the bracket's own edges ln thr + lnLo and
// ln thr + lnHi. prunes must answer what smax - math.Log(S) <= ln thr answers.
func TestDenomBracketMatchesLog(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	lnThr := math.Log(1e-3)
	var fast int
	for trial := 0; trial < 3000; trial++ {
		a := math.Exp(rng.Float64()*80 - 40)
		var s float64
		switch trial % 3 {
		case 0:
			s = a * math.Exp2(rng.Float64()*4-2)
		case 1:
			s = a * (1 + float64(rng.Intn(2001)-1000)*0x1p-52)
		default:
			s = a * (1 + (rng.Float64()-0.5)*1e-6)
		}
		d := denom{lnThr: lnThr, lnLo: math.Inf(-1), lnHi: math.Inf(1),
			winLo: math.Inf(1), winHi: math.Inf(-1), sum: a}
		d.anchor()
		d.sum = s
		d.moved()
		ln := math.Log(s)
		for _, edge := range []float64{ln, d.lnLo, d.lnHi} {
			if math.IsInf(edge, 0) {
				continue
			}
			smax := lnThr + edge
			for k := 0; k < 3; k++ {
				smax = math.Nextafter(smax, math.Inf(-1))
			}
			for k := -3; k <= 3; k++ {
				probe := d
				want := smax-ln <= lnThr
				if got := probe.prunes(smax); got != want {
					t.Fatalf("A %v S %v smax %v: prunes %v, exact test %v", a, s, smax, got, want)
				}
				if probe.lnLo == d.lnLo {
					fast++ // decided by the bracket, without math.Log
				}
				smax = math.Nextafter(smax, math.Inf(1))
			}
		}
	}
	if fast == 0 {
		t.Fatal("every test fell back to math.Log: the bracket was never exercised")
	}
}
