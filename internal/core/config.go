// Package core implements the Token-Picker algorithm itself: conservative
// probability estimation from partial key bits, threshold pruning, chunk
// scheduling, and transfer accounting. This is the paper's primary
// contribution (§3); everything else in the repository is substrate.
//
// The algorithm, per attention instance (one query against n cached keys):
//
//  1. Keys live in DRAM as 12-bit two's-complement integers, stored as three
//     4-bit chunks per vector so a vector can be fetched piecewise.
//  2. The Margin Generator derives, from the query alone, how much any
//     unknown key bits could still change a score (fixed.Margins).
//  3. Tokens are visited most-recent first with the first token promoted
//     (attention locality, Fig. 4a), so the denominator grows quickly and
//     pruning decisions become sharp early.
//  4. After each fetched chunk, the token's score interval [s_min, s_max]
//     tightens. The estimated probability upper bound
//     p” = exp(s_max_i) / Σ_{j in subset} exp(s_min_j)
//     dominates the true softmax probability, so p” <= thr proves
//     p_true <= thr and the token can be pruned safely: its remaining K
//     chunks and its entire V vector are never fetched.
//  5. Tokens surviving all chunks have exact scores; the denominator then
//     equals the exponentiated sum over survivors and feeds the softmax.
package core

import (
	"fmt"

	"tokenpicker/internal/fixed"
)

// OrderPolicy selects the order in which tokens enter the subset.
type OrderPolicy int

const (
	// OrderPaper visits the newest token first, then the first token (the
	// attention-sink position), then the rest newest-to-oldest. This is the
	// paper's locality-guided order (§3.1).
	OrderPaper OrderPolicy = iota
	// OrderForward visits tokens oldest-to-newest (ablation).
	OrderForward
	// OrderReverse visits tokens strictly newest-to-oldest without
	// promoting the first token (ablation).
	OrderReverse
)

func (o OrderPolicy) String() string {
	switch o {
	case OrderPaper:
		return "paper"
	case OrderForward:
		return "forward"
	case OrderReverse:
		return "reverse"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// Schedule selects how chunk fetches interleave across tokens.
type Schedule int

const (
	// ScheduleWave processes chunk b of every surviving token before any
	// token's chunk b+1, approximating the out-of-order hardware under
	// long DRAM latency (requests for chunk b+1 queue behind outstanding
	// first-chunk requests).
	ScheduleWave Schedule = iota
	// ScheduleDepthFirst streams each token's chunks to completion before
	// the next token, approximating zero-latency DRAM (ablation).
	ScheduleDepthFirst
)

func (s Schedule) String() string {
	if s == ScheduleDepthFirst {
		return "depth-first"
	}
	return "wave"
}

// Config parameterizes an Estimator.
type Config struct {
	Chunks    fixed.ChunkSpec
	Threshold float64 // prune when p'' <= Threshold; <=0 disables pruning
	Order     OrderPolicy
	Schedule  Schedule
	// KeepPrunedInDenominator retains pruned tokens' exp(s_min) in the
	// running denominator (ablation). The paper removes them so the final
	// denominator is exactly the exponentiated sum of unpruned scores (§4).
	KeepPrunedInDenominator bool
	// FixedPointExp routes exp/ln through the 32-bit fixed-point units the
	// PE lane implements rather than float64 (bit-fidelity mode).
	FixedPointExp bool
}

// DefaultConfig returns the paper's configuration at the given probability
// threshold.
func DefaultConfig(threshold float64) Config {
	return Config{
		Chunks:    fixed.DefaultChunkSpec,
		Threshold: threshold,
		Order:     OrderPaper,
		Schedule:  ScheduleWave,
	}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if err := c.Chunks.Validate(); err != nil {
		return err
	}
	if c.Threshold >= 1 {
		return fmt.Errorf("core: threshold %g must be < 1", c.Threshold)
	}
	if c.Order < OrderPaper || c.Order > OrderReverse {
		return fmt.Errorf("core: unknown %v", c.Order)
	}
	return nil
}
