package core

import (
	"math"
	"math/rand"
	"testing"

	"tokenpicker/internal/fixed"
)

// randInstance builds a synthetic attention instance: Gaussian query and
// keys, scaled like real attention (scores roughly in [-8, 8]), with an
// ALiBi-style recency bias.
func randInstance(rng *rand.Rand, n, dim int, peaked bool) Inputs {
	qf := make([]float32, dim)
	for i := range qf {
		qf[i] = float32(rng.NormFloat64())
	}
	kRows := make([]fixed.Vector, n)
	kf := make([][]float32, n)
	maxMag := 0.0
	for i := 0; i < n; i++ {
		row := make([]float32, dim)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		if peaked && i%17 == 0 {
			// A few keys strongly aligned with the query -> sharp softmax.
			for j := range row {
				row[j] += qf[j] * 2
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
	for i := range kf {
		kRows[i] = fixed.QuantizeWithScale(kf[i], 12, kScale).Data
	}
	bias := make([]float32, n)
	for i := range bias {
		bias[i] = -0.02 * float32(n-1-i)
	}
	return Inputs{
		Q:      fixed.Quantize(qf, 12),
		K:      kRows,
		KScale: kScale,
		Scale:  1 / math.Sqrt(float64(dim)),
		Bias:   bias,
	}
}

// trueProbs computes the exact softmax over the quantized scores.
func trueProbs(in Inputs) []float64 {
	n := len(in.K)
	scores := make([]float64, n)
	c := in.Scale * in.Q.Scale * in.KScale
	maxS := math.Inf(-1)
	for i := 0; i < n; i++ {
		s := c * float64(fixed.Dot(in.Q.Data, in.K[i]))
		if in.Bias != nil {
			s += float64(in.Bias[i])
		}
		scores[i] = s
		if s > maxS {
			maxS = s
		}
	}
	var sum float64
	for _, s := range scores {
		sum += math.Exp(s - maxS)
	}
	probs := make([]float64, n)
	for i, s := range scores {
		probs[i] = math.Exp(s-maxS) / sum
	}
	return probs
}

// TestNoFalsePrune is the paper's central guarantee: a pruned token's true
// softmax probability is at or below the threshold.
func TestNoFalsePrune(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, thr := range []float64{1e-2, 1e-3, 1e-4} {
		for _, sched := range []Schedule{ScheduleWave, ScheduleDepthFirst} {
			for _, order := range []OrderPolicy{OrderPaper, OrderForward, OrderReverse} {
				cfg := DefaultConfig(thr)
				cfg.Schedule = sched
				cfg.Order = order
				est := MustNewEstimator(cfg)
				for trial := 0; trial < 8; trial++ {
					in := randInstance(rng, 100+rng.Intn(100), 32, trial%2 == 0)
					rep := est.Run(in)
					probs := trueProbs(in)
					for i := 0; i < rep.N; i++ {
						if !rep.KeptMask(i) && probs[i] > thr*(1+1e-9) {
							t.Fatalf("thr=%g sched=%v order=%v: token %d pruned with true p=%g",
								thr, sched, order, i, probs[i])
						}
					}
				}
			}
		}
	}
}

func TestKeptScoresExact(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	est := MustNewEstimator(DefaultConfig(1e-3))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 120, 32, true)
		rep := est.Run(in)
		c := in.Scale * in.Q.Scale * in.KScale
		if len(rep.Kept) == 0 {
			t.Fatal("nothing kept")
		}
		for _, i := range rep.Kept {
			want := c * float64(fixed.Dot(in.Q.Data, in.K[i]))
			if in.Bias != nil {
				want += float64(in.Bias[i])
			}
			if math.Abs(rep.Scores[i]-want) > 1e-9 {
				t.Fatalf("kept token %d score %g, want %g", i, rep.Scores[i], want)
			}
		}
	}
}

func TestDenominatorConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	est := MustNewEstimator(DefaultConfig(1e-3))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 150, 32, trial%2 == 0)
		rep := est.Run(in)
		var sum float64
		for _, i := range rep.Kept {
			sum += math.Exp(rep.Scores[i])
		}
		if math.Abs(rep.LogDenominator-math.Log(sum)) > 1e-9 {
			t.Fatalf("log denominator %g, want %g", rep.LogDenominator, math.Log(sum))
		}
		// Probabilities of kept tokens sum to 1 after renormalization.
		var ptot float64
		for _, i := range rep.Kept {
			ptot += rep.Prob(i)
		}
		if math.Abs(ptot-1) > 1e-9 {
			t.Fatalf("kept probabilities sum to %g", ptot)
		}
	}
}

func TestThresholdZeroDisablesPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	est := MustNewEstimator(DefaultConfig(0))
	in := randInstance(rng, 64, 16, false)
	rep := est.Run(in)
	if len(rep.Kept) != rep.N {
		t.Fatalf("threshold 0 pruned %d tokens", rep.N-len(rep.Kept))
	}
	// Probabilities equal the full softmax.
	probs := trueProbs(in)
	for _, i := range rep.Kept {
		if math.Abs(rep.Prob(i)-probs[i]) > 1e-9 {
			t.Fatalf("token %d prob %g, want %g", i, rep.Prob(i), probs[i])
		}
	}
	// All chunks of all tokens fetched.
	for b, nf := range rep.ChunkFetches {
		if nf != int64(rep.N) {
			t.Fatalf("chunk %d fetched %d times, want %d", b, nf, rep.N)
		}
	}
}

func TestChunkFetchAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	est := MustNewEstimator(DefaultConfig(1e-3))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 200, 32, true)
		rep := est.Run(in)
		// Chunk 0 is fetched for every token; fetch counts never increase
		// with chunk index.
		if rep.ChunkFetches[0] != int64(rep.N) {
			t.Fatalf("chunk0 fetches %d != n %d", rep.ChunkFetches[0], rep.N)
		}
		for b := 1; b < len(rep.ChunkFetches); b++ {
			if rep.ChunkFetches[b] > rep.ChunkFetches[b-1] {
				t.Fatalf("chunk fetches increased: %v", rep.ChunkFetches)
			}
		}
		// Fetch counts reconcile with prune positions: a token pruned at
		// chunk b consumed chunks 0..b; kept tokens consumed all chunks.
		want := make([]int64, len(rep.ChunkFetches))
		for i := 0; i < rep.N; i++ {
			upto := len(rep.ChunkFetches) - 1
			if p := rep.PrunedAtChunk[i]; p >= 0 {
				upto = int(p)
			}
			for b := 0; b <= upto; b++ {
				want[b]++
			}
		}
		for b := range want {
			if want[b] != rep.ChunkFetches[b] {
				t.Fatalf("chunk %d: fetches %d, reconciled %d", b, rep.ChunkFetches[b], want[b])
			}
		}
	}
}

func TestPruningEffectiveOnPeaked(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	est := MustNewEstimator(DefaultConfig(1e-3))
	totalKept, totalN := 0, 0
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 256, 32, true)
		rep := est.Run(in)
		totalKept += len(rep.Kept)
		totalN += rep.N
	}
	ratio := float64(totalN) / float64(totalKept)
	if ratio < 2 {
		t.Fatalf("V pruning ratio %.2f too weak on peaked instances", ratio)
	}
}

func TestOutputErrorBounded(t *testing.T) {
	// Dropped probability mass at threshold thr over n tokens is at most
	// n*thr, so renormalized kept probabilities deviate by a bounded amount.
	rng := rand.New(rand.NewSource(37))
	thr := 1e-4
	est := MustNewEstimator(DefaultConfig(thr))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 128, 32, true)
		rep := est.Run(in)
		probs := trueProbs(in)
		var dropped float64
		for i := 0; i < rep.N; i++ {
			if !rep.KeptMask(i) {
				dropped += probs[i]
			}
		}
		if dropped > thr*float64(rep.N) {
			t.Fatalf("dropped mass %g exceeds n*thr=%g", dropped, thr*float64(rep.N))
		}
		for _, i := range rep.Kept {
			// Renormalized probability = p_true / (1 - dropped).
			want := probs[i] / (1 - dropped)
			if math.Abs(rep.Prob(i)-want) > 1e-6 {
				t.Fatalf("kept token %d prob %g, want %g", i, rep.Prob(i), want)
			}
		}
	}
}

func TestFixedPointExpSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	thr := 1e-3
	cfg := DefaultConfig(thr)
	cfg.FixedPointExp = true
	est := MustNewEstimator(cfg)
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 150, 32, trial%2 == 0)
		rep := est.Run(in)
		probs := trueProbs(in)
		for i := 0; i < rep.N; i++ {
			// Fixed-point rounding can nudge the boundary by ~2^-12 relative.
			if !rep.KeptMask(i) && probs[i] > thr*1.01 {
				t.Fatalf("fixed-point prune of token %d with true p=%g", i, probs[i])
			}
		}
		if len(rep.Kept) == 0 {
			t.Fatal("fixed-point mode kept nothing")
		}
	}
}

func TestKeepPrunedInDenominatorStillSound(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	thr := 1e-3
	cfg := DefaultConfig(thr)
	cfg.KeepPrunedInDenominator = true
	est := MustNewEstimator(cfg)
	for trial := 0; trial < 8; trial++ {
		in := randInstance(rng, 150, 32, true)
		rep := est.Run(in)
		probs := trueProbs(in)
		for i := 0; i < rep.N; i++ {
			if !rep.KeptMask(i) && probs[i] > thr*(1+1e-9) {
				t.Fatalf("keep-pruned mode falsely pruned token %d p=%g", i, probs[i])
			}
		}
	}
}

// TestUnknownOrderRejected pins that an order outside the three policies
// fails validation instead of running as OrderPaper.
func TestUnknownOrderRejected(t *testing.T) {
	for _, order := range []OrderPolicy{-1, OrderReverse + 1} {
		cfg := DefaultConfig(1e-3)
		cfg.Order = order
		if _, err := NewEstimator(cfg); err == nil {
			t.Fatalf("order %v validated", order)
		}
	}
}

func TestOrderPoliciesCoverAllTokens(t *testing.T) {
	est := MustNewEstimator(DefaultConfig(0))
	rng := rand.New(rand.NewSource(41))
	for _, order := range []OrderPolicy{OrderPaper, OrderForward, OrderReverse} {
		cfg := DefaultConfig(0)
		cfg.Order = order
		est = MustNewEstimator(cfg)
		in := randInstance(rng, 50, 16, false)
		rep := est.Run(in)
		if len(rep.Kept) != 50 {
			t.Fatalf("order %v dropped tokens with pruning disabled", order)
		}
	}
}

func TestEmptyAndSingleToken(t *testing.T) {
	est := MustNewEstimator(DefaultConfig(1e-3))
	rep := est.Run(Inputs{Q: fixed.Quantize([]float32{1, 2}, 12), Scale: 1})
	if rep.N != 0 || len(rep.Kept) != 0 {
		t.Fatal("empty instance should produce empty report")
	}
	rng := rand.New(rand.NewSource(42))
	in := randInstance(rng, 1, 16, false)
	rep = est.Run(in)
	if len(rep.Kept) != 1 {
		t.Fatal("single token must always be kept (p'' = 1)")
	}
	if math.Abs(rep.Prob(0)-1) > 1e-9 {
		t.Fatalf("single-token probability %g, want 1", rep.Prob(0))
	}
}

func TestPaperOrderVisitsNewestAndFirstEarly(t *testing.T) {
	e := MustNewEstimator(DefaultConfig(1e-3))
	e.buildOrder(6)
	want := []int{5, 0, 4, 3, 2, 1}
	for i, v := range want {
		if e.order[i] != v {
			t.Fatalf("paper order = %v, want %v", e.order, want)
		}
	}
}

// Statistical monotonicity: a looser threshold should not keep more tokens
// in aggregate.
func TestThresholdMonotonicityAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	instances := make([]Inputs, 12)
	for i := range instances {
		instances[i] = randInstance(rng, 160, 32, i%2 == 0)
	}
	prevKept := math.MaxInt64
	for _, thr := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		est := MustNewEstimator(DefaultConfig(thr))
		kept := 0
		for _, in := range instances {
			kept += len(est.Run(in).Kept)
		}
		if kept > prevKept {
			t.Fatalf("thr=%g kept %d > tighter threshold's %d", thr, kept, prevKept)
		}
		prevKept = kept
	}
}

// BenchmarkEstimatorLong times one decode_long-shaped instance per op (so
// ns/op is ns per instance): a peaked 12-bit instance with n = 1,536 keys of
// width 32 under the default threshold — the in-repo counterpart of
// benchmark/'s core.estimator_us_per_instance.
func BenchmarkEstimatorLong(b *testing.B) {
	in := specInstance(rand.New(rand.NewSource(1)), fixed.DefaultChunkSpec, 1536, 32, true)
	est := MustNewEstimator(DefaultConfig(1e-3))
	var rep Report
	for b.Loop() {
		est.RunInto(&rep, in)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := Config{Chunks: fixed.ChunkSpec{TotalBits: 1, ChunkBits: 1}}
	if _, err := NewEstimator(bad); err == nil {
		t.Fatal("invalid chunk spec accepted")
	}
	badThr := DefaultConfig(1.5)
	if _, err := NewEstimator(badThr); err == nil {
		t.Fatal("threshold >= 1 accepted")
	}
}
