package bench

import (
	"tokenpicker/internal/attention"
	"tokenpicker/internal/train"
)

// Fig8Row holds one model's access/perplexity results for the three
// configurations of the paper's Fig. 8.
type Fig8Row struct {
	Model string

	BasePPL float64

	// ToPick (tight threshold, paper budget <= +0.05 PPL).
	TPPPL      float64
	TPKAccess  float64 // K bytes normalized to baseline
	TPVAccess  float64 // V bytes normalized to baseline
	TPTotal    float64 // (K+V) normalized
	TPVRatio   float64 // V pruning ratio (tokens/kept)
	TPKRed     float64 // K reduction factor
	TPTotalRed float64

	// ToPick-0.3 (looser threshold).
	TP03PPL      float64
	TP03KAccess  float64
	TP03VAccess  float64
	TP03Total    float64
	TP03VRatio   float64
	TP03KRed     float64
	TP03TotalRed float64
}

// Fig8 reproduces the paper's headline algorithm result: normalized DRAM
// access for KV caching (bars) and perplexity (lines) across the model
// family, for ToPick and ToPick-0.3 against the non-pruning baseline.
// Thresholds are fixed per configuration; the measured ΔPPL is reported
// alongside (the paper instead fixes the ΔPPL budget and tunes thresholds
// offline — CalibrateThreshold implements that direction).
func Fig8(opts Options) (*Table, []Fig8Row) {
	t := &Table{
		Title: "Fig 8: normalized off-chip access (generation phase) and perplexity",
		Header: []string{"model", "base PPL",
			"ToPick K", "ToPick V", "ToPick K+V", "ToPick PPL",
			"TP-0.3 K", "TP-0.3 V", "TP-0.3 K+V", "TP-0.3 PPL"},
	}
	var rows []Fig8Row
	for _, pm := range opts.Models {
		r := train.Get(pm.StandIn, opts.TrainOpts)
		row := Fig8Row{Model: pm.Paper}

		base := attention.NewQuantizedExact()
		row.BasePPL = evalRun(r, base, opts.PromptLen, opts.EvalTokens)
		baseStats := base.Stats()

		tp := attention.NewTokenPicker(opts.ThrToPick)
		row.TPPPL = evalRun(r, tp, opts.PromptLen, opts.EvalTokens)
		st := tp.Stats()
		row.TPKAccess = float64(st.KBytes) / float64(baseStats.KBytes)
		row.TPVAccess = float64(st.VBytes) / float64(baseStats.VBytes)
		row.TPTotal = float64(st.KBytes+st.VBytes) / float64(baseStats.KBytes+baseStats.VBytes)
		row.TPVRatio = st.PruningRatio()
		row.TPKRed = st.KReduction()
		row.TPTotalRed = st.TotalReduction()

		tp03 := attention.NewTokenPicker(opts.ThrToPick03)
		row.TP03PPL = evalRun(r, tp03, opts.PromptLen, opts.EvalTokens)
		st03 := tp03.Stats()
		row.TP03KAccess = float64(st03.KBytes) / float64(baseStats.KBytes)
		row.TP03VAccess = float64(st03.VBytes) / float64(baseStats.VBytes)
		row.TP03Total = float64(st03.KBytes+st03.VBytes) / float64(baseStats.KBytes+baseStats.VBytes)
		row.TP03VRatio = st03.PruningRatio()
		row.TP03KRed = st03.KReduction()
		row.TP03TotalRed = st03.TotalReduction()

		rows = append(rows, row)
		t.AddRow(pm.Paper, f3(row.BasePPL),
			f3(row.TPKAccess), f3(row.TPVAccess), f3(row.TPTotal), f3(row.TPPPL),
			f3(row.TP03KAccess), f3(row.TP03VAccess), f3(row.TP03Total), f3(row.TP03PPL))
	}

	// Aggregate the headline numbers (§5.2.1).
	var vr, vr03, kr, kr03, tr, tr03 float64
	for _, row := range rows {
		vr += row.TPVRatio
		vr03 += row.TP03VRatio
		kr += row.TPKRed
		kr03 += row.TP03KRed
		tr += row.TPTotalRed
		tr03 += row.TP03TotalRed
	}
	n := float64(len(rows))
	t.AddNote("mean V pruning ratio: ToPick %.1fx (paper 12.1x), ToPick-0.3 %.1fx (paper 22.2x)", vr/n, vr03/n)
	t.AddNote("mean K reduction:     ToPick %.2fx (paper 1.45x), ToPick-0.3 %.2fx (paper 1.51x)", kr/n, kr03/n)
	t.AddNote("mean total reduction: ToPick %.2fx (paper 2.57x), ToPick-0.3 %.2fx (paper 2.79x)", tr/n, tr03/n)
	t.AddNote("thresholds: ToPick %g, ToPick-0.3 %g; PPL columns show the measured cost", opts.ThrToPick, opts.ThrToPick03)
	return t, rows
}
