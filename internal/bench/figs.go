package bench

import (
	"fmt"
	"math"
	"sort"

	"tokenpicker/internal/model"
	"tokenpicker/internal/tensor"
	"tokenpicker/internal/train"
)

// ---------------------------------------------------------------- Fig. 2

// Fig2Row is one (model, batch) memory-transfer breakdown.
type Fig2Row struct {
	Model      string
	Batch      int
	KVFrac     float64
	WeightFrac float64
	EmbFrac    float64
}

// Fig2 reproduces the paper's memory-transfer breakdown during the
// generation phase. It is analytical: per generated token and per request,
// pre-trained weights and the word embedding are amortized over the batch
// while each request streams its own KV cache at the model's maximum
// context length (fp16 operands, as on the papers' GPU setups).
func Fig2() (*Table, []Fig2Row) {
	t := &Table{
		Title:  "Fig 2: off-chip memory access breakdown in generation phase",
		Header: []string{"model", "batch", "KV caching", "weights", "embedding"},
	}
	var rows []Fig2Row
	wanted := map[string]bool{"GPT2-XL": true, "OPT-6.7B": true, "LLaMa-2-7B": true}
	for _, pm := range model.Family() {
		if !wanted[pm.Paper] {
			continue
		}
		l, d, s, v := float64(pm.PaperLayers), float64(pm.PaperDModel), float64(pm.PaperCtx), float64(pm.PaperVocab)
		const bytesPerParam = 2 // fp16
		weights := bytesPerParam * l * 12 * d * d
		emb := bytesPerParam * v * d
		kvPerReq := bytesPerParam * 2 * l * d * s
		for _, batch := range []int{1, 4, 16, 64} {
			w := weights / float64(batch)
			e := emb / float64(batch)
			total := w + e + kvPerReq
			row := Fig2Row{
				Model: pm.Paper, Batch: batch,
				KVFrac:     kvPerReq / total,
				WeightFrac: w / total,
				EmbFrac:    e / total,
			}
			rows = append(rows, row)
			t.AddRow(pm.Paper, fmt.Sprintf("B=%d", batch),
				f3(row.KVFrac), f3(row.WeightFrac), f3(row.EmbFrac))
		}
	}
	t.AddNote("paper: KV share is 7.8%% at B=1 rising to 84.3%% at B=64 (S = max context)")
	return t, rows
}

// ---------------------------------------------------------------- Fig. 3

// Fig3Data summarizes score-distribution variability between two instances
// at the same layer/head/context.
type Fig3Data struct {
	Context         int
	DominantA       int // tokens with p > 1e-3 in instance A
	DominantB       int
	HistogramA      []int // score histogram, fixed bins
	HistogramB      []int
	BinLo, BinWidth float64
	InstanceAStep   int
	InstanceBStep   int
}

// Fig3 reproduces the observation motivating instance-adaptive pruning:
// with identical layer, head, and context length, the number of dominant
// tokens (probability above 1e-3) varies widely across instances. The two
// instances are picked as the min/max dominant-count decode steps of a
// window of generation steps on the trained stand-in model.
func Fig3(opts Options) (*Table, Fig3Data) {
	pm := opts.Models[0]
	r := train.Get(pm.StandIn, opts.TrainOpts)
	ctx := opts.PromptLen
	steps := opts.EvalTokens / 2
	if steps > 64 {
		steps = 64
	}
	layer, head := r.Params.Cfg.Layers-1, 0

	type inst struct {
		step     int
		dominant int
		scores   []float32
	}
	var insts []inst
	rec := &recordKernel{layer: layer, head: head}
	dec2 := model.NewDecoder(r.Params, rec)
	dec2.MustPrompt(r.Held[:ctx])
	for s := 0; s < steps; s++ {
		rec.captured = nil
		dec2.MustStep(r.Held[ctx+s])
		if rec.captured == nil {
			continue
		}
		probs := make([]float32, len(rec.captured))
		tensor.Softmax(probs, rec.captured)
		dom := 0
		for _, p := range probs {
			if p > 1e-3 {
				dom++
			}
		}
		insts = append(insts, inst{step: s, dominant: dom, scores: rec.captured})
	}
	sort.Slice(insts, func(a, b int) bool { return insts[a].dominant < insts[b].dominant })
	a, b := insts[0], insts[len(insts)-1]

	const bins = 12
	lo, width := histBounds(append(append([]float32{}, a.scores...), b.scores...), bins)
	data := Fig3Data{
		Context:       len(a.scores),
		DominantA:     a.dominant,
		DominantB:     b.dominant,
		HistogramA:    histogram(a.scores, lo, width, bins),
		HistogramB:    histogram(b.scores, lo, width, bins),
		BinLo:         lo,
		BinWidth:      width,
		InstanceAStep: a.step,
		InstanceBStep: b.step,
	}
	t := &Table{
		Title:  "Fig 3: correlation-score distributions of two instances (same layer/head/context)",
		Header: []string{"score bin", "instance A count", "instance B count"},
	}
	for i := 0; i < bins; i++ {
		t.AddRow(fmt.Sprintf("[%.1f,%.1f)", lo+float64(i)*width, lo+float64(i+1)*width),
			fmt.Sprintf("%d", data.HistogramA[i]), fmt.Sprintf("%d", data.HistogramB[i]))
	}
	t.AddNote("dominant tokens (p > 1e-3): instance A = %d, instance B = %d of %d",
		data.DominantA, data.DominantB, data.Context)
	t.AddNote("paper: 48 vs 241 dominant tokens at context 1024 — fixed-ratio pruning cannot serve both")
	return t, data
}

// recordKernel captures raw scores at one (layer, head).
type recordKernel struct {
	inner    model.ExactKernel
	layer    int
	head     int
	captured []float32
}

// AttendLayer implements model.Kernel.
func (rk *recordKernel) AttendLayer(b model.AttendBatch) {
	rk.inner.AttendLayer(b)
	if b.Layer == rk.layer {
		h := rk.head
		rk.captured = model.Scores(b.TaskQ(h), b.Keys[h], b.TaskN(h), b.Scale, b.Slopes[h])
	}
}

func histBounds(xs []float32, bins int) (lo, width float64) {
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if float64(x) < mn {
			mn = float64(x)
		}
		if float64(x) > mx {
			mx = float64(x)
		}
	}
	if mx <= mn {
		mx = mn + 1
	}
	return mn, (mx - mn) / float64(bins)
}

func histogram(xs []float32, lo, width float64, bins int) []int {
	h := make([]int, bins)
	for _, x := range xs {
		i := int((float64(x) - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h[i]++
	}
	return h
}

// ---------------------------------------------------------------- Fig. 4a

// Fig4Data holds the locality heatmap: mean attention probability per head
// over position buckets [first token, middle, t-9 .. t-1, t]. The middle
// bucket aggregates all tokens between the first and the recent window;
// MiddlePerToken gives its per-token average for locality comparisons.
type Fig4Data struct {
	Heads          []string
	Buckets        []string
	Probs          [][]float64 // [head][bucket]
	MiddlePerToken []float64   // [head]
}

// Fig4 reproduces the locality heatmap: the first token and the most recent
// tokens carry most probability mass, motivating the reverse-chronological
// (+first token) estimation order.
func Fig4(opts Options) (*Table, Fig4Data) {
	pm := opts.Models[0]
	r := train.Get(pm.StandIn, opts.TrainOpts)
	cfg := r.Params.Cfg
	ctx := opts.PromptLen
	steps := opts.EvalTokens / 2
	if steps > 48 {
		steps = 48
	}

	const recent = 10
	nBuckets := recent + 2 // first, middle, t-9..t
	heads := cfg.Layers * cfg.Heads
	sums := make([][]float64, heads)
	counts := make([]int, heads)
	for i := range sums {
		sums[i] = make([]float64, nBuckets)
	}
	midToks := make([]int64, heads)
	agg := &heatmapKernel{sums: sums, counts: counts, midToks: midToks, recent: recent, heads: cfg.Heads}
	dec := model.NewDecoder(r.Params, agg)
	dec.MustPrompt(r.Held[:ctx])
	for s := 0; s < steps; s++ {
		dec.MustStep(r.Held[ctx+s])
	}

	data := Fig4Data{Probs: make([][]float64, heads)}
	data.Buckets = append(data.Buckets, "first", "middle")
	for i := recent - 1; i >= 1; i-- {
		data.Buckets = append(data.Buckets, fmt.Sprintf("t-%d", i))
	}
	data.Buckets = append(data.Buckets, "t")
	t := &Table{
		Title:  "Fig 4a: mean attention probability by token position (generation phase)",
		Header: append([]string{"layer.head"}, data.Buckets...),
	}
	data.MiddlePerToken = make([]float64, heads)
	for h := 0; h < heads; h++ {
		data.Heads = append(data.Heads, fmt.Sprintf("L%d.H%d", h/cfg.Heads, h%cfg.Heads))
		data.Probs[h] = make([]float64, nBuckets)
		cells := []string{data.Heads[h]}
		for b := 0; b < nBuckets; b++ {
			v := 0.0
			if counts[h] > 0 {
				v = sums[h][b] / float64(counts[h])
			}
			data.Probs[h][b] = v
			cells = append(cells, f3(v))
		}
		if midToks[h] > 0 {
			data.MiddlePerToken[h] = sums[h][1] / float64(midToks[h])
		}
		t.AddRow(cells...)
	}
	t.AddNote("middle aggregates tokens 1..t-%d; paper Fig 4a shows the same first/recent dominance", recent)
	return t, data
}

// heatmapKernel accumulates bucketed probabilities per (layer, head).
type heatmapKernel struct {
	inner   model.ExactKernel
	sums    [][]float64
	counts  []int
	midToks []int64
	recent  int
	heads   int
	probs   []float32
}

// AttendLayer implements model.Kernel.
func (hk *heatmapKernel) AttendLayer(b model.AttendBatch) {
	hk.inner.AttendLayer(b)
	n := b.TaskN(0)
	if n < hk.recent+2 {
		return
	}
	for head := 0; head < b.Heads; head++ {
		scores := model.Scores(b.TaskQ(head), b.Keys[head], n, b.Scale, b.Slopes[head])
		if cap(hk.probs) < n {
			hk.probs = make([]float32, n)
		}
		probs := hk.probs[:n]
		tensor.Softmax(probs, scores)
		idx := b.Layer*hk.heads + head
		row := hk.sums[idx]
		row[0] += float64(probs[0]) // first token
		var mid float64
		for i := 1; i < n-hk.recent; i++ {
			mid += float64(probs[i])
		}
		row[1] += mid
		hk.midToks[idx] += int64(n - hk.recent - 1)
		for j := 0; j < hk.recent; j++ {
			row[2+j] += float64(probs[n-hk.recent+j])
		}
		hk.counts[idx]++
	}
}
