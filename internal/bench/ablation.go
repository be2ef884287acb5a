package bench

import (
	"fmt"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/core"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/train"
)

// AblationRow reports one estimator variant's traffic and perplexity.
type AblationRow struct {
	Name    string
	PPL     float64
	VRatio  float64
	KRed    float64
	Total   float64 // normalized K+V traffic vs non-pruning baseline
	PPLBase float64
}

// runVariant evaluates one estimator configuration on the first stand-in.
func runVariant(r *train.Result, opts Options, name string, cfg core.Config, baseBytes int64, basePPL float64) AblationRow {
	k := attention.NewTokenPickerFrom(cfg)
	ppl := evalRun(r, k, opts.PromptLen, opts.EvalTokens)
	st := k.Stats()
	return AblationRow{
		Name:    name,
		PPL:     ppl,
		VRatio:  st.PruningRatio(),
		KRed:    st.KReduction(),
		Total:   float64(st.KBytes+st.VBytes) / float64(baseBytes),
		PPLBase: basePPL,
	}
}

// AblationChunkWidth sweeps the K bit-chunk width. The paper fixes 4-bit
// chunks; narrower chunks allow earlier pruning decisions but more
// round-trips, wider chunks the reverse. DESIGN.md lists this as a design
// choice to quantify.
func AblationChunkWidth(opts Options) (*Table, []AblationRow) {
	r := trainFirst(opts)
	base := attention.NewQuantizedExact()
	basePPL := evalRun(r, base, opts.PromptLen, opts.EvalTokens)
	baseBytes := base.Stats().KBytes + base.Stats().VBytes

	t := &Table{
		Title:  "Ablation: chunk width (12-bit keys, threshold fixed)",
		Header: []string{"chunk bits", "chunks", "K reduction", "V ratio", "K+V traffic", "PPL"},
	}
	var rows []AblationRow
	for _, bits := range []uint{2, 3, 4, 6, 12} {
		cfg := core.DefaultConfig(opts.ThrToPick)
		cfg.Chunks = fixed.ChunkSpec{TotalBits: 12, ChunkBits: bits}
		row := runVariant(r, opts, fmt.Sprintf("%d-bit", bits), cfg, baseBytes, basePPL)
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%d", bits), fmt.Sprintf("%d", cfg.Chunks.NumChunks()),
			f2(row.KRed), f2(row.VRatio), f3(row.Total), f3(row.PPL))
	}
	t.AddNote("12-bit chunk = no chunking: probability estimation on exact scores (V pruning only)")
	t.AddNote("baseline PPL %.3f; the paper's design point is 4-bit chunks", basePPL)
	return t, rows
}

// AblationOrdering compares token-visit orders. The paper's order (newest
// first, first token promoted) exploits attention locality so the
// denominator grows fast; forward order is the natural worst case; oracle
// order bounds what any ordering could achieve.
func AblationOrdering(opts Options) (*Table, []AblationRow) {
	r := trainFirst(opts)
	base := attention.NewQuantizedExact()
	basePPL := evalRun(r, base, opts.PromptLen, opts.EvalTokens)
	baseBytes := base.Stats().KBytes + base.Stats().VBytes

	t := &Table{
		Title:  "Ablation: token visit order for the estimation subset",
		Header: []string{"order", "K reduction", "V ratio", "K+V traffic", "PPL"},
	}
	var rows []AblationRow
	for _, ord := range []core.OrderPolicy{core.OrderPaper, core.OrderReverse, core.OrderForward} {
		cfg := core.DefaultConfig(opts.ThrToPick)
		cfg.Order = ord
		row := runVariant(r, opts, ord.String(), cfg, baseBytes, basePPL)
		rows = append(rows, row)
		t.AddRow(ord.String(), f2(row.KRed), f2(row.VRatio), f3(row.Total), f3(row.PPL))
	}
	t.AddNote("paper order = newest first with the first token (attention sink) promoted (§3.1)")
	return t, rows
}

// AblationSchedule compares the wave schedule (hardware-like, decisions made
// with whatever subset has arrived) against depth-first streaming (each
// token finished before the next, i.e. zero-latency DRAM).
func AblationSchedule(opts Options) (*Table, []AblationRow) {
	r := trainFirst(opts)
	base := attention.NewQuantizedExact()
	basePPL := evalRun(r, base, opts.PromptLen, opts.EvalTokens)
	baseBytes := base.Stats().KBytes + base.Stats().VBytes

	t := &Table{
		Title:  "Ablation: chunk scheduling across tokens",
		Header: []string{"schedule", "K reduction", "V ratio", "K+V traffic", "PPL"},
	}
	var rows []AblationRow
	for _, sch := range []core.Schedule{core.ScheduleWave, core.ScheduleDepthFirst} {
		cfg := core.DefaultConfig(opts.ThrToPick)
		cfg.Schedule = sch
		row := runVariant(r, opts, sch.String(), cfg, baseBytes, basePPL)
		rows = append(rows, row)
		t.AddRow(sch.String(), f2(row.KRed), f2(row.VRatio), f3(row.Total), f3(row.PPL))
	}
	return t, rows
}

// AblationDenominator compares removing pruned tokens' lower-bound
// contributions from the running denominator (the paper's choice, which
// also yields the final softmax denominator for free) against keeping them
// (slightly more aggressive estimates, denominator no longer reusable).
func AblationDenominator(opts Options) (*Table, []AblationRow) {
	r := trainFirst(opts)
	base := attention.NewQuantizedExact()
	basePPL := evalRun(r, base, opts.PromptLen, opts.EvalTokens)
	baseBytes := base.Stats().KBytes + base.Stats().VBytes

	t := &Table{
		Title:  "Ablation: pruned tokens in the running denominator",
		Header: []string{"policy", "K reduction", "V ratio", "K+V traffic", "PPL"},
	}
	var rows []AblationRow
	for _, keep := range []bool{false, true} {
		cfg := core.DefaultConfig(opts.ThrToPick)
		cfg.KeepPrunedInDenominator = keep
		name := "remove (paper)"
		if keep {
			name = "keep (ablation)"
		}
		row := runVariant(r, opts, name, cfg, baseBytes, basePPL)
		rows = append(rows, row)
		t.AddRow(name, f2(row.KRed), f2(row.VRatio), f3(row.Total), f3(row.PPL))
	}
	return t, rows
}

// AblationFixedPoint compares float64 estimation arithmetic against the
// 32-bit fixed-point exp/ln units the PE lane actually implements.
func AblationFixedPoint(opts Options) (*Table, []AblationRow) {
	r := trainFirst(opts)
	base := attention.NewQuantizedExact()
	basePPL := evalRun(r, base, opts.PromptLen, opts.EvalTokens)
	baseBytes := base.Stats().KBytes + base.Stats().VBytes

	t := &Table{
		Title:  "Ablation: estimation arithmetic (float64 vs PE-lane fixed point)",
		Header: []string{"arithmetic", "K reduction", "V ratio", "K+V traffic", "PPL"},
	}
	var rows []AblationRow
	for _, fx := range []bool{false, true} {
		cfg := core.DefaultConfig(opts.ThrToPick)
		cfg.FixedPointExp = fx
		name := "float64"
		if fx {
			name = "Q16.16/Q32.32 fixed"
		}
		row := runVariant(r, opts, name, cfg, baseBytes, basePPL)
		rows = append(rows, row)
		t.AddRow(name, f2(row.KRed), f2(row.VRatio), f3(row.Total), f3(row.PPL))
	}
	t.AddNote("fixed-point rounding must not change results materially (hardware fidelity)")
	return t, rows
}

// Ablations runs the full ablation suite.
func Ablations(opts Options) []*Table {
	t1, _ := AblationChunkWidth(opts)
	t2, _ := AblationOrdering(opts)
	t3, _ := AblationSchedule(opts)
	t4, _ := AblationDenominator(opts)
	t5, _ := AblationFixedPoint(opts)
	return []*Table{t1, t2, t3, t4, t5}
}
