package bench

import (
	"fmt"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/train"
)

// Fig9Split is one prompt-length/end-length configuration.
type Fig9Split struct {
	Prompt, End int
}

// Fig9Row holds normalized (K+V) access for one split.
type Fig9Row struct {
	Split        Fig9Split
	SpAtten      float64
	SpAttenStar  float64
	ToPick05     float64
	SpAttenKeep  float64 // calibrated keep ratio
	SpAttenKeepS float64 // calibrated keep ratio for the starred variant
}

// Fig9 reproduces the SpAtten comparison on the GPT2-Medium stand-in across
// prompt/end splits. All configurations get the same perplexity budget;
// "SpAtten*" stands in for the fine-tuned variant via a cascade schedule
// with a per-split calibrated (more aggressive) keep ratio (DESIGN.md §2).
func Fig9(opts Options, splits []Fig9Split, budget float64) (*Table, []Fig9Row) {
	if splits == nil {
		splits = []Fig9Split{{256, 512}, {256, 768}, {256, 1024}, {512, 1024}, {768, 1024}}
	}
	pm := model.GPT2Medium()
	r := train.Get(pm.StandIn, opts.TrainOpts)
	cfg := r.Params.Cfg

	t := &Table{
		Title:  "Fig 9: normalized K+V access vs SpAtten (GPT2-Medium stand-in, equal PPL budget)",
		Header: []string{"prompt-end", "baseline", "SpAtten", "SpAtten*", "ToPick-0.5", "keep", "keep*"},
	}
	var rows []Fig9Row
	for _, sp := range splits {
		gen := sp.End - sp.Prompt
		if sp.Prompt+gen+1 > len(r.Held) {
			gen = len(r.Held) - sp.Prompt - 1
		}

		baseK := attention.NewQuantizedExact()
		evalRun(r, baseK, sp.Prompt, gen)
		baseBytes := baseK.Stats().KBytes + baseK.Stats().VBytes

		spCfg := attention.SpAttenConfig{
			KeepRatio: 0.5, MinKeep: 8,
			Layers: cfg.Layers, Heads: cfg.Heads, Cascade: false, Bits: 12,
		}
		keep := CalibrateKeepRatio(r, spCfg, sp.Prompt, gen, budget)
		spCfg.KeepRatio = keep
		spK := attention.NewSpAtten(spCfg)
		evalRun(r, spK, sp.Prompt, gen)
		spBytes := spK.Stats().KBytes + spK.Stats().VBytes

		// Starred variant: cascade schedule, calibrated with a widened
		// budget standing in for fine-tuned recovery.
		starCfg := spCfg
		starCfg.Cascade = true
		keepStar := CalibrateKeepRatio(r, starCfg, sp.Prompt, gen, budget*2)
		starCfg.KeepRatio = keepStar
		starK := attention.NewSpAtten(starCfg)
		evalRun(r, starK, sp.Prompt, gen)
		starBytes := starK.Stats().KBytes + starK.Stats().VBytes

		tpK := attention.NewTokenPicker(opts.ThrToPick05)
		evalRun(r, tpK, sp.Prompt, gen)
		tpBytes := tpK.Stats().KBytes + tpK.Stats().VBytes

		row := Fig9Row{
			Split:        sp,
			SpAtten:      float64(spBytes) / float64(baseBytes),
			SpAttenStar:  float64(starBytes) / float64(baseBytes),
			ToPick05:     float64(tpBytes) / float64(baseBytes),
			SpAttenKeep:  keep,
			SpAttenKeepS: keepStar,
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%d-%d", sp.Prompt, sp.End), "1.000",
			f3(row.SpAtten), f3(row.SpAttenStar), f3(row.ToPick05),
			f3(row.SpAttenKeep), f3(row.SpAttenKeepS))
	}
	t.AddNote("paper (256-1024): baseline 1.00, SpAtten 0.63, SpAtten* 0.43, ToPick-0.5 0.39")
	t.AddNote("paper trend: SpAtten catches up on long-prompt splits; ToPick wins without fine-tuning")
	t.AddNote("keep / keep* are the calibrated deepest-layer keep ratios; when the PPL budget does")
	t.AddNote("not bind on the synthetic corpus the calibration saturates at its floor (see EXPERIMENTS.md)")
	return t, rows
}
