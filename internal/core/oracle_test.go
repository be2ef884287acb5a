package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tokenpicker/internal/fixed"
)

// oracleRun is the estimator's previous inner step, kept as the reference
// the decide-before-exponentiate step is checked against: for every token
// and chunk it extracts the chunk bit by bit, swaps the token's old
// exp(s_min) for the tightened one (one Exp), tests s_max against a freshly
// evaluated ln D (one Log), and subtracts the contribution again on a prune.
func oracleRun(cfg Config, in Inputs) *Report {
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
	e.buildOrder(n, in.TrueScores)
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
		Q:          fixed.Quantize(qf, cs.TotalBits),
		K:          make([]fixed.Vector, n),
		KScale:     fixed.ScaleFor(maxMag, cs.TotalBits),
		Scale:      1 / math.Sqrt(float64(dim)),
		Bias:       make([]float32, n),
		TrueScores: make([]float64, n),
	}
	c := in.Scale * in.Q.Scale * in.KScale
	for i := range kf {
		in.K[i] = fixed.QuantizeWithScale(kf[i], cs.TotalBits, in.KScale).Data
		in.Bias[i] = -slope * float32(n-1-i)
		in.TrueScores[i] = c*float64(fixed.Dot(in.Q.Data, in.K[i])) + float64(in.Bias[i])
	}
	return in
}

// TestStepMatchesOracle sweeps Order x Schedule x KeepPrunedInDenominator x
// FixedPointExp x chunk spec on random and peaked instances. Against the
// previous step the report must be identical: the same kept set, prune
// chunks and fetch counts, bit-equal scores for kept tokens, a bit-equal
// denominator. Separately, every pruned token's exact full-softmax
// probability must be at or below the threshold (the paper's guarantee; the
// fixed-point units get their rounding slack).
func TestStepMatchesOracle(t *testing.T) {
	specs := []fixed.ChunkSpec{
		fixed.DefaultChunkSpec,
		{TotalBits: 8, ChunkBits: 3}, // narrower last chunk
		{TotalBits: 15, ChunkBits: 5},
	}
	orders := []OrderPolicy{OrderPaper, OrderForward, OrderReverse, OrderOracle}
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
					for trial := 0; trial < 4; trial++ {
						in := specInstance(rng, cs, 96+rng.Intn(96), 32, trial%2 == 1)
						name := fmt.Sprintf("%+v trial %d", cfg, trial)
						est.RunInto(&rep, in) // reused report and scratch, as the kernel does
						want := oracleRun(cfg, in)
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
