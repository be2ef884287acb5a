package model

import (
	"math"
	"math/rand"
	"strconv"
	"sync"

	"tokenpicker/internal/tensor"
)

// BlockParams holds one transformer block's weights. Projection matrices are
// stored [out x in] so a forward application is a MatVec.
type BlockParams struct {
	Ln1G, Ln1B []float32
	Wq, Wk, Wv *tensor.Mat // DModel x DModel
	Bq, Bk, Bv []float32
	Wo         *tensor.Mat // DModel x DModel
	Bo         []float32
	Ln2G, Ln2B []float32
	W1         *tensor.Mat // FFNDim x DModel
	B1         []float32
	W2         *tensor.Mat // DModel x FFNDim
	B2         []float32
}

// Params holds all model weights. The output head is tied to the token
// embedding (logits = TokEmb . h), halving parameter count as in GPT-2.
//
// The first BatchEngine built over a Params (every Decoder's first Step or
// Prompt builds one) packs the projection, FFN and embedding matrices once
// for tensor's panel GEMV, and every engine over the same Params reads that
// one copy. The weights must therefore not change after a decoder has
// stepped: training writes them before any inference runs.
type Params struct {
	Cfg    Config
	TokEmb *tensor.Mat // VocabSize x DModel
	Blocks []*BlockParams
	LnFG   []float32 // final layernorm
	LnFB   []float32

	packOnce sync.Once
	packed   *packedParams
}

// packedParams is the inference copy of Params' matrices in panel layout.
type packedParams struct {
	emb    *tensor.Panels
	blocks []packedBlock
}

// packedBlock holds one block's packed matrices.
type packedBlock struct {
	wq, wk, wv, wo, w1, w2 *tensor.Panels
}

// panels returns the packed matrices, packing them on the first call.
func (p *Params) panels() *packedParams {
	p.packOnce.Do(func() {
		pk := &packedParams{emb: tensor.Pack(p.TokEmb), blocks: make([]packedBlock, len(p.Blocks))}
		for l, b := range p.Blocks {
			pk.blocks[l] = packedBlock{
				wq: tensor.Pack(b.Wq), wk: tensor.Pack(b.Wk), wv: tensor.Pack(b.Wv),
				wo: tensor.Pack(b.Wo), w1: tensor.Pack(b.W1), w2: tensor.Pack(b.W2),
			}
		}
		p.packed = pk
	})
	return p.packed
}

// NewParams allocates and initializes weights with the given seed.
// Initialization follows GPT-2 practice: N(0, 0.02) scaled down on residual
// projections by 1/sqrt(2*Layers).
func NewParams(cfg Config, seed int64) *Params {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	d := cfg.DModel()
	f := cfg.FFNDim()
	const std = 0.08
	resStd := std / float32(math.Sqrt(2*float64(cfg.Layers)))

	p := &Params{
		Cfg:    cfg,
		TokEmb: tensor.NewMat(cfg.VocabSize, d),
		LnFG:   ones(d),
		LnFB:   make([]float32, d),
	}
	p.TokEmb.RandInit(rng, float64(std))
	for l := 0; l < cfg.Layers; l++ {
		b := &BlockParams{
			Ln1G: ones(d), Ln1B: make([]float32, d),
			Wq: tensor.NewMat(d, d), Wk: tensor.NewMat(d, d), Wv: tensor.NewMat(d, d),
			Bq: make([]float32, d), Bk: make([]float32, d), Bv: make([]float32, d),
			Wo: tensor.NewMat(d, d), Bo: make([]float32, d),
			Ln2G: ones(d), Ln2B: make([]float32, d),
			W1: tensor.NewMat(f, d), B1: make([]float32, f),
			W2: tensor.NewMat(d, f), B2: make([]float32, d),
		}
		b.Wq.RandInit(rng, float64(std))
		b.Wk.RandInit(rng, float64(std))
		b.Wv.RandInit(rng, float64(std))
		b.Wo.RandInit(rng, float64(resStd))
		b.W1.RandInit(rng, float64(std))
		b.W2.RandInit(rng, float64(resStd))
		p.Blocks = append(p.Blocks, b)
	}
	return p
}

func ones(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// NumParams returns the total scalar parameter count.
func (p *Params) NumParams() int {
	n := len(p.TokEmb.Data) + len(p.LnFG) + len(p.LnFB)
	for _, b := range p.Blocks {
		n += len(b.Ln1G) + len(b.Ln1B) + len(b.Ln2G) + len(b.Ln2B)
		n += len(b.Wq.Data) + len(b.Wk.Data) + len(b.Wv.Data) + len(b.Wo.Data)
		n += len(b.Bq) + len(b.Bk) + len(b.Bv) + len(b.Bo)
		n += len(b.W1.Data) + len(b.W2.Data) + len(b.B1) + len(b.B2)
	}
	return n
}

// VisitSlices calls fn on every parameter slice. The training substrate uses
// this to pair parameters with gradient and optimizer state without
// reflection.
func (p *Params) VisitSlices(fn func(name string, data []float32)) {
	fn("tok_emb", p.TokEmb.Data)
	fn("lnf_g", p.LnFG)
	fn("lnf_b", p.LnFB)
	for i, b := range p.Blocks {
		pre := "block" + strconv.Itoa(i) + "."
		fn(pre+"ln1_g", b.Ln1G)
		fn(pre+"ln1_b", b.Ln1B)
		fn(pre+"wq", b.Wq.Data)
		fn(pre+"wk", b.Wk.Data)
		fn(pre+"wv", b.Wv.Data)
		fn(pre+"bq", b.Bq)
		fn(pre+"bk", b.Bk)
		fn(pre+"bv", b.Bv)
		fn(pre+"wo", b.Wo.Data)
		fn(pre+"bo", b.Bo)
		fn(pre+"ln2_g", b.Ln2G)
		fn(pre+"ln2_b", b.Ln2B)
		fn(pre+"w1", b.W1.Data)
		fn(pre+"b1", b.B1)
		fn(pre+"w2", b.W2.Data)
		fn(pre+"b2", b.B2)
	}
}

// CloneZero allocates a parameter-shaped gradient buffer (all zeros).
func (p *Params) CloneZero() *Params {
	g := NewParams(p.Cfg, 0)
	g.VisitSlices(func(_ string, data []float32) {
		for i := range data {
			data[i] = 0
		}
	})
	return g
}
