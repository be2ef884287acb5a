package core

import (
	"fmt"
	"math"

	"tokenpicker/internal/fixed"
	"tokenpicker/internal/tensor"
)

// Inputs is one attention instance presented to the estimator. All keys
// share one quantization scale so integer partial scores are comparable
// across tokens (in hardware the KV cache is stored pre-quantized).
type Inputs struct {
	Q      fixed.Quantized // quantized query (fully on-chip)
	K      []fixed.Vector  // n key vectors quantized at Config.Chunks.TotalBits
	KScale float64         // shared key scale
	Scale  float64         // score scale, typically 1/sqrt(headDim)
	// KPlanes is ignored: chunk b of a key is read from K as
	// k & ChunkMask(b).
	//
	// Deprecated: kept only because the frozen benchmark harness still sets
	// it; the next benchmark PR removes it (see ROADMAP item 1(b)).
	KPlanes [][]int32
	// Bias is an optional additive score bias known before any K bits
	// arrive (e.g. ALiBi recency bias); nil means zero. It shifts both
	// interval ends equally so margins remain sound.
	Bias []float32
	// TrueScores is required only for OrderOracle.
	TrueScores []float64
}

// Report is the outcome of one estimator run.
type Report struct {
	N    int
	Kept []int // token indices retained, ascending
	// PrunedAtChunk[i] is the chunk index whose arrival pruned token i, or
	// -1 if the token was kept.
	PrunedAtChunk []int8
	// Scores[i] is the exact final score for kept tokens (garbage for
	// pruned ones).
	Scores []float64
	// LogDenominator is ln of the exponentiated sum over kept tokens,
	// i.e. the softmax denominator after step 0.
	LogDenominator float64
	// ChunkFetches[b] counts how many tokens had chunk b fetched.
	ChunkFetches []int64
}

// KeptMask reports whether token i survived.
func (r *Report) KeptMask(i int) bool { return r.PrunedAtChunk[i] < 0 }

// Prob returns the post-pruning softmax probability of kept token i.
func (r *Report) Prob(i int) float64 {
	return math.Exp(r.Scores[i] - r.LogDenominator)
}

// KBytes returns the key bytes fetched for a head dimension dim under spec.
func (r *Report) KBytes(cs fixed.ChunkSpec, dim int) int64 {
	var total int64
	for b, n := range r.ChunkFetches {
		total += n * int64(cs.ChunkBytes(dim, b))
	}
	return total
}

// VBytes returns the value bytes fetched (full vectors, kept tokens only).
func (r *Report) VBytes(cs fixed.ChunkSpec, dim int) int64 {
	return int64(len(r.Kept)) * int64(cs.VectorBytes(dim))
}

// BaselineKBytes returns key bytes a non-pruning accelerator fetches.
func (r *Report) BaselineKBytes(cs fixed.ChunkSpec, dim int) int64 {
	return int64(r.N) * int64(cs.VectorBytes(dim))
}

// BaselineVBytes returns value bytes a non-pruning accelerator fetches.
func (r *Report) BaselineVBytes(cs fixed.ChunkSpec, dim int) int64 {
	return int64(r.N) * int64(cs.VectorBytes(dim))
}

// Estimator runs Token-Picker probability estimation. It is not safe for
// concurrent use; create one per goroutine.
type Estimator struct {
	cfg   Config
	masks []int16 // masks[b] = cfg.Chunks.ChunkMask(b)

	// reusable scratch
	partial []int64
	dots    []int64 // one wave's chunk partials, in visiting order
	expMin  []float64
	fxExp   []uint64
	order   []int
	margins fixed.Margins
}

// NewEstimator validates cfg and returns an estimator.
func NewEstimator(cfg Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Estimator{cfg: cfg, masks: make([]int16, cfg.Chunks.NumChunks())}
	for b := range e.masks {
		e.masks[b] = cfg.Chunks.ChunkMask(b)
	}
	return e, nil
}

// MustNewEstimator is NewEstimator for static configs.
func MustNewEstimator(cfg Config) *Estimator {
	e, err := NewEstimator(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Config returns the estimator's configuration.
func (e *Estimator) Config() Config { return e.cfg }

// Run executes probability estimation over one instance and returns the
// pruning report. The report is freshly allocated; scratch state is reused.
func (e *Estimator) Run(in Inputs) *Report {
	rep := &Report{}
	e.RunInto(rep, in)
	return rep
}

// RunInto is Run with a caller-owned report: rep's slices are resized in
// place and reused across calls, so a kernel that keeps one report per
// instance pays zero allocations in steady state. Report and scratch slices
// grow by powers of two, so a context that lengthens by one token per call
// reallocates O(log n) times. Previous report contents are overwritten.
func (e *Estimator) RunInto(rep *Report, in Inputs) {
	n := len(in.K)
	numChunks := len(e.masks)
	rep.N = n
	rep.Kept = rep.Kept[:0]
	rep.PrunedAtChunk = tensor.Grow(rep.PrunedAtChunk, n)
	rep.Scores = tensor.Grow(rep.Scores, n)
	rep.ChunkFetches = tensor.Grow(rep.ChunkFetches, numChunks)
	clear(rep.ChunkFetches)
	if n == 0 {
		rep.LogDenominator = math.Inf(-1)
		return
	}
	if in.Bias != nil && len(in.Bias) != n {
		panic(fmt.Sprintf("core: bias length %d != n %d", len(in.Bias), n))
	}
	e.margins.Compute(e.cfg.Chunks, in.Q.Data)

	// No per-token state is cleared here: every token's first visit, in
	// both schedules, is chunk 0, and decide initialises its partial score,
	// PrunedAtChunk entry and denominator contribution there.
	e.partial = tensor.Grow(e.partial, n)
	r := run{
		q:       in.Q.Data,
		k:       in.K,
		bias:    in.Bias,
		c:       in.Scale * in.Q.Scale * in.KScale,
		masks:   e.masks,
		pairs:   e.margins.Pairs,
		partial: e.partial,
		pruned:  rep.PrunedAtChunk,
		scores:  rep.Scores,
		prune:   e.cfg.Threshold > 0,
		keep:    e.cfg.KeepPrunedInDenominator,
		d: denom{fx: e.cfg.FixedPointExp, lnThr: math.Log(e.cfg.Threshold),
			lnLo: math.Inf(-1), lnHi: math.Inf(1), // no bracket, no anchor yet
			winLo: math.Inf(1), winHi: math.Inf(-1)},
	}
	if r.d.fx {
		e.fxExp = tensor.Grow(e.fxExp, n)
		r.d.qExp = e.fxExp
		r.d.qLnThr = fixed.FloatToQ16(r.d.lnThr)
		r.d.qLn = fixed.LnFix(0)
	} else {
		e.expMin = tensor.Grow(e.expMin, n)
		r.d.exp = e.expMin
	}
	e.buildOrder(n, in.TrueScores)

	if e.cfg.Schedule == ScheduleDepthFirst {
		// Stream each token's chunks to completion before the next token.
		for _, i := range e.order {
			for b := 0; b < numChunks; b++ {
				rep.ChunkFetches[b]++
				if !r.decide(i, b, fixed.MaskedDot(r.q, r.k[i], r.masks[b])) {
					break
				}
			}
		}
	} else {
		// Wave: chunk b of every surviving token before any chunk b+1. A
		// token's partial never depends on D, only its decision does, so
		// one call scores chunk b of every survivor and decide then runs
		// over them in visiting order: the decisions are the one-at-a-time
		// ones. The survivors are compacted in place, in visiting order.
		// The kernel's overflow bound needs the widest operand's width.
		bits := max(e.cfg.Chunks.TotalBits, in.Q.Bits)
		e.dots = tensor.Grow(e.dots, n)
		live := e.order
		for b := 0; b < numChunks; b++ {
			rep.ChunkFetches[b] = int64(len(live))
			dots := e.dots[:len(live)]
			fixed.MaskedDots(dots, r.q, r.k, live, r.masks[b], bits)
			next := live[:0]
			for x, i := range live {
				if r.decide(i, b, dots[x]) {
					next = append(next, i)
				}
			}
			live = next
		}
	}

	// Collect kept tokens in ascending index order and the denominator.
	if r.d.fx {
		var d uint64
		for i := 0; i < n; i++ {
			if rep.PrunedAtChunk[i] < 0 {
				d = fixed.AddSat(d, e.fxExp[i])
				rep.Kept = append(rep.Kept, i)
			}
		}
		rep.LogDenominator = fixed.Q16ToFloat(fixed.LnFix(d))
	} else {
		var d float64
		for i := 0; i < n; i++ {
			if rep.PrunedAtChunk[i] < 0 {
				d += e.expMin[i]
				rep.Kept = append(rep.Kept, i)
			}
		}
		rep.LogDenominator = math.Log(d)
	}
}

// buildOrder fills e.order according to the policy.
func (e *Estimator) buildOrder(n int, trueScores []float64) {
	e.order = tensor.Grow(e.order, n)[:0]
	switch e.cfg.Order {
	case OrderForward:
		for i := 0; i < n; i++ {
			e.order = append(e.order, i)
		}
	case OrderReverse:
		for i := n - 1; i >= 0; i-- {
			e.order = append(e.order, i)
		}
	case OrderOracle:
		if trueScores == nil {
			panic("core: OrderOracle requires Inputs.TrueScores")
		}
		for i := 0; i < n; i++ {
			e.order = append(e.order, i)
		}
		// Insertion sort by descending true score (n is modest and this
		// path is ablation-only).
		for i := 1; i < n; i++ {
			j := i
			for j > 0 && trueScores[e.order[j-1]] < trueScores[e.order[j]] {
				e.order[j-1], e.order[j] = e.order[j], e.order[j-1]
				j--
			}
		}
	default: // OrderPaper
		e.order = append(e.order, n-1)
		if n > 1 {
			e.order = append(e.order, 0)
		}
		for i := n - 2; i >= 1; i-- {
			e.order = append(e.order, i)
		}
	}
}

// denom is the running denominator D = Σ exp(s_min) over the current subset,
// in float64 or (FixedPointExp) in the PE lane's Q32.32, together with each
// token's current contribution. A token's first fold (chunk 0) has no earlier
// contribution to replace, so the contribution slices need no clearing
// between instances.
//
// The fixed-point domain re-evaluates ln D eagerly, on every change of D.
// The float64 domain evaluates it lazily. D = S is a plain float64 sum, and
// the prune test is exactly
//
//	smax - math.Log(S) <= ln thr
//
// with the Log taken at the current S. That Log is skipped whenever a
// bracket decides the test. The bracket is anchored at A, the value of S at
// the last math.Log (lnA = math.Log(A)). While A/2 <= S <= 2A, write
// x = S/A - 1, so x lies in [-1/2, 1]. The series of ln(1+x) bounds it:
//
//	x >= 0:  x - x²/2 <= ln(1+x) <= x
//	x <  0:  x - x²   <= ln(1+x) <= x - x²/2
//
// (for x < 0 the tail beyond x is -Σ|x|^k/k, at least -x²/(2(1-|x|)) >= -x²).
// So ln S lies in lnA + [lo(x), hi(x)]. The computed bracket is widened by
// tol = 2^-40·(1 + |lnA|). That covers the roundings involved. S - A is exact
// (Sterbenz: A/2 <= S <= 2A), and x = (S - A)·(1/A) has two roundings. Log is
// within 1 ulp at A and at S. Then come the few adds that form the bracket.
// All of these together stay under 2^-47·(1 + |lnA|). The window [A/2, 2A]
// is only opened for A in [2^-1000, 2^1000], so 1/A, A/2 and 2A are normal.
// Hence the floats lnLo <= math.Log(S) <= lnHi. Rounding to nearest is
// monotone, so
//
//	fl(smax - lnHi) <= fl(smax - math.Log(S)) <= fl(smax - lnLo).
//
// If fl(smax - lnLo) <= ln thr, the exact test prunes. If fl(smax - lnHi) >
// ln thr, it keeps. Only when the bracket straddles ln thr, or S has left
// the window, does prunes call math.Log(S). It then decides exactly and
// re-anchors at A = S. Every decision is therefore the exact test's.
type denom struct {
	fx    bool
	lnThr float64 // ln(threshold)

	// float64 domain: D and each token's contribution; a bracket [lnLo,
	// lnHi] on math.Log(sum); the anchor A, 1/A and lnA ± tol; and the
	// window [winLo, winHi] = [A/2, 2A] (empty without an anchor).
	sum          float64
	exp          []float64
	lnLo, lnHi   float64
	a, invA      float64
	aLo, aHi     float64
	winLo, winHi float64

	qSum        uint64 // Q32.32 domain: D, then ln D and ln(threshold) in Q16.16
	qLn, qLnThr int64
	qExp        []uint64
}

// prunes evaluates s_max - ln D <= ln thr. An empty subset (D = 0) has
// ln D = -inf and prunes nothing. The bracket test is small enough to inline
// into decide; the fixed-point domain keeps its bracket at [-inf, +inf], so
// every one of its tests falls through to the eager Q16.16 ln D.
func (d *denom) prunes(smax float64) bool {
	return smax-d.lnLo <= d.lnThr || (smax-d.lnHi <= d.lnThr && d.prunesExact(smax))
}

// prunesExact is the test without a bracket: the fixed-point one, or the
// float64 one after anchoring.
func (d *denom) prunesExact(smax float64) bool {
	if d.fx {
		return fixed.FloatToQ16(smax)-d.qLn <= d.qLnThr
	}
	d.anchor()
	return smax-d.lnLo <= d.lnThr
}

// anchor evaluates ln D with math.Log, which collapses the bracket onto it,
// and re-anchors the window at A = D.
func (d *denom) anchor() {
	a := d.sum
	ln := math.Log(a)
	d.lnLo, d.lnHi = ln, ln
	if a < 0x1p-1000 || a > 0x1p1000 {
		d.winLo, d.winHi = math.Inf(1), math.Inf(-1)
		return
	}
	tol := 0x1p-40 * (1 + math.Abs(ln))
	d.a, d.invA = a, 1/a
	d.aLo, d.aHi = ln-tol, ln+tol
	d.winLo, d.winHi = a/2, 2*a
}

// moved re-brackets ln D after D changed: from the anchor while D is inside
// its window, otherwise [-inf, +inf], which sends the next test to
// math.Log.
func (d *denom) moved() {
	s := d.sum
	if s < d.winLo || s > d.winHi {
		d.lnLo, d.lnHi = math.Inf(-1), math.Inf(1)
		return
	}
	x := (s - d.a) * d.invA
	h := 0.5 * x * x
	if x >= 0 {
		d.lnLo, d.lnHi = d.aLo+(x-h), d.aHi+x
	} else {
		d.lnLo, d.lnHi = d.aLo+(x-2*h), d.aHi+(x-h)
	}
}

// tighten replaces token i's contribution with exp(smin); on the token's
// first fold (first) there is none to replace.
func (d *denom) tighten(i int, smin float64, first bool) {
	if d.fx {
		v := fixed.ExpFix(fixed.FloatToQ16(smin))
		s := d.qSum
		if !first {
			s = fixed.SubFloor(s, d.qExp[i])
		}
		d.qSum = fixed.AddSat(s, v)
		d.qExp[i] = v
		d.qLn = fixed.LnFix(d.qSum)
		return
	}
	v := math.Exp(smin)
	s := d.sum
	if !first {
		s -= d.exp[i]
		if s < 0 {
			s = 0
		}
	}
	d.sum = s + v
	d.exp[i] = v
	d.moved()
}

// drop removes the contribution of token i, which has folded at least once,
// from D.
func (d *denom) drop(i int) {
	if d.fx {
		if v := d.qExp[i]; v != 0 {
			d.qSum = fixed.SubFloor(d.qSum, v)
			d.qLn = fixed.LnFix(d.qSum)
		}
		return
	}
	if v := d.exp[i]; v != 0 {
		s := d.sum - v
		if s < 0 {
			s = 0
		}
		d.sum = s
		d.moved()
	}
}

// run is one instance's loop-invariant state, gathered once so the per-token
// decision takes three ints and copies nothing.
type run struct {
	q       fixed.Vector
	k       []fixed.Vector
	bias    []float32 // nil = zero
	c       float64   // integer score -> real score
	masks   []int16
	pairs   []fixed.MarginPair
	partial []int64
	pruned  []int8
	scores  []float64
	prune   bool // threshold > 0
	keep    bool // KeepPrunedInDenominator
	d       denom
}

// decide advances token i by chunk b, whose chunk-b partial dot is dp — the
// one decision of both schedules and both denominator domains — and reports
// whether the token survives. Chunk 0 is every token's first visit, so it
// initialises the token's partial score, its PrunedAtChunk entry and (on its
// first fold) its denominator contribution.
//
// The prune test comes before the exponential: s_max is compared against
// ln D first, and only a token that passes has exp(s_min) evaluated, folded
// into D, and is tested again with its own contribution included. Intervals
// nest, so exp(s_min) never shrinks from one chunk to the next and folding it
// in can only raise D: a token the first test prunes would also be pruned
// after the fold, and the decision is the one a fold-then-test step makes.
// What the early exit saves is the Exp for tokens that are discarded anyway;
// the bracket on ln D (see denom) saves nearly every Log. Pruning at the
// final chunk no longer saves K bytes but still skips the V fetch ("only the
// tokens that have not been removed by the last chunk participate in
// subsequent softmax and xV operations", §3.2).
func (r *run) decide(i, b int, dp int64) bool {
	p := dp
	if b > 0 {
		p += r.partial[i]
	}
	m := r.pairs[b]
	var bias float64
	if r.bias != nil {
		bias = float64(r.bias[i])
	}
	smax := r.c*float64(p+m.Max) + bias
	// KeepPrunedInDenominator cannot exit early: a pruned token's tightened
	// exp(s_min) has to stay in D.
	if r.prune && !r.keep && r.d.prunes(smax) {
		if b > 0 {
			r.d.drop(i)
		}
		r.pruned[i] = int8(b)
		return false
	}
	r.d.tighten(i, r.c*float64(p+m.Min)+bias, b == 0)
	if b == len(r.masks)-1 {
		r.scores[i] = smax // == s_min: exact
	}
	if r.prune && r.d.prunes(smax) {
		if !r.keep {
			r.d.drop(i)
		}
		r.pruned[i] = int8(b)
		return false
	}
	r.partial[i] = p
	if b == 0 {
		r.pruned[i] = -1
	}
	return true
}
