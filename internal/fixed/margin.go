package fixed

// MarginPair bounds the change a partially-known key can still cause to a
// dot-product score. After chunks 0..b of a key are known (unknown low bits
// zeroed), the exact score s satisfies
//
//	ps_b + Min <= s <= ps_b + Max
//
// where ps_b is the partial score. Min is always <= 0 and Max always >= 0.
type MarginPair struct {
	Min int64
	Max int64
}

// Margins holds one MarginPair per chunk index for a specific query vector.
// The paper's Margin Generator produces exactly this table before step 0
// begins (§4: "the Margin Generator produces three margin pairs ... solely
// from the query").
type Margins struct {
	Spec  ChunkSpec
	Pairs []MarginPair
	// sumPos and sumNeg are the sums of positive and negative query
	// elements, retained for diagnostics and ablation tooling.
	sumPos int64
	sumNeg int64
}

// NewMargins computes the margin table for query q under spec cs.
//
// Derivation: each key element k = known + r with 0 <= r <= U_b where
// U_b = UnknownAfter(b). The term q*r is maximized at q*U_b for q > 0 and at
// 0 for q <= 0; minimized conversely. Summing over dimensions:
//
//	Max_b = U_b * Σ_{q_i > 0} q_i
//	Min_b = U_b * Σ_{q_i < 0} q_i
func NewMargins(cs ChunkSpec, q Vector) Margins {
	var m Margins
	m.Compute(cs, q)
	return m
}

// Compute fills m with the margin table for query q under spec cs, reusing
// the Pairs storage when its capacity suffices. Estimator hot paths call this
// once per attention instance, so it must not allocate in steady state; cs
// must be valid (the estimator validates it once, at construction).
func (m *Margins) Compute(cs ChunkSpec, q Vector) {
	var sumPos, sumNeg int64
	for _, x := range q {
		if x > 0 {
			sumPos += int64(x)
		} else {
			sumNeg += int64(x)
		}
	}
	n := cs.NumChunks()
	if cap(m.Pairs) < n {
		m.Pairs = make([]MarginPair, n)
	}
	m.Pairs = m.Pairs[:n]
	for b := 0; b < n; b++ {
		u := cs.UnknownAfter(b)
		m.Pairs[b] = MarginPair{Min: u * sumNeg, Max: u * sumPos}
	}
	m.Spec = cs
	m.sumPos, m.sumNeg = sumPos, sumNeg
}

// Pair returns the margin pair for chunk index b.
func (m Margins) Pair(b int) MarginPair { return m.Pairs[b] }

// Interval converts a partial score at chunk index b into the score interval
// [smin, smax] that must contain the exact dot product.
func (m Margins) Interval(partial int64, b int) (smin, smax int64) {
	p := m.Pair(b)
	return partial + p.Min, partial + p.Max
}

// QuerySums exposes the positive/negative query-element sums the margins are
// built from (used by the hardware model to size the Margin Generator
// datapath).
func (m Margins) QuerySums() (pos, neg int64) {
	return m.sumPos, m.sumNeg
}

// Exact reports whether chunk index b is the final chunk, i.e. the interval
// has collapsed to the exact score.
func (m Margins) Exact(b int) bool {
	return b == m.Spec.NumChunks()-1
}
