package bench

import (
	"math"
	"os"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/core"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/model"
	"tokenpicker/internal/sim/arch"
	"tokenpicker/internal/tensor"
	"tokenpicker/internal/train"
)

// Options sizes an experiment run. Full() reproduces the figures at the
// scale this repository targets; Quick() keeps unit tests fast.
type Options struct {
	TrainOpts  train.Options
	Models     []model.PaperModel // stand-in family subset
	PromptLen  int                // decode warm-up (exact attention)
	EvalTokens int                // generation-phase tokens measured
	// Thresholds for the named configurations.
	ThrToPick   float64 // "ToPick" (paper: <= +0.05 PPL)
	ThrToPick03 float64 // "ToPick-0.3"
	ThrToPick05 float64 // "ToPick-0.5" (Fig 9)
	// TraceSample keeps every k-th attention instance for the cycle sim.
	TraceSample  int
	MaxInstances int
	// TracePrompt/TraceEval size the decode run used for hardware traces.
	// The cycle simulator needs the paper's memory-bound regime (contexts
	// approaching 1024), which is longer than the PPL eval window.
	TracePrompt int
	TraceEval   int
}

// Full returns the experiment scale used by cmd/topick-experiments and the
// benchmark harness.
func Full() Options {
	return Options{
		TrainOpts:    train.DefaultOptions(),
		Models:       model.Family(),
		PromptLen:    192,
		EvalTokens:   384,
		ThrToPick:    1e-3,
		ThrToPick03:  1e-2,
		ThrToPick05:  2e-2,
		TraceSample:  7,
		MaxInstances: 48,
		TracePrompt:  768,
		TraceEval:    256,
	}
}

// Quick returns a reduced scale for unit tests: two stand-ins, short
// training, short eval.
func Quick() Options {
	o := Full()
	o.TrainOpts = train.QuickOptions()
	o.Models = model.Family()[:2]
	o.PromptLen = 64
	o.EvalTokens = 128
	o.TraceSample = 11
	o.MaxInstances = 12
	o.TracePrompt = 384
	o.TraceEval = 128
	return o
}

// FromEnv returns Quick() when TOPICK_QUICK is set, else Full().
func FromEnv() Options {
	if os.Getenv("TOPICK_QUICK") != "" {
		return Quick()
	}
	return Full()
}

// evalRun decodes the held-out stream through the given kernel and returns
// perplexity; kernel statistics accumulate inside the kernel.
func evalRun(r *train.Result, kernel model.Kernel, promptLen, evalTokens int) float64 {
	tokens := r.Held
	need := promptLen + evalTokens + 1
	if len(tokens) < need {
		need = len(tokens)
	}
	tokens = tokens[:need]
	dec := model.NewDecoder(r.Params, kernel)
	dec.MustPrompt(tokens[:promptLen])
	var nll float64
	n := 0
	for t := promptLen; t+1 < len(tokens); t++ {
		logits := dec.MustStep(tokens[t])
		maxv := logits[0]
		for _, v := range logits[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range logits {
			sum += math.Exp(float64(v - maxv))
		}
		nll += float64(maxv) + math.Log(sum) - float64(logits[tokens[t+1]])
		n++
	}
	return math.Exp(nll / float64(n))
}

// statKernel is any kernel exposing transfer statistics.
type statKernel interface {
	model.Kernel
	Stats() attention.Stats
}

// CalibrateThreshold bisects the Token-Picker threshold until held-out
// perplexity degrades by about budget over the quantized-exact baseline.
// Coarse by design (the paper tunes thresholds offline the same way).
func CalibrateThreshold(r *train.Result, promptLen, evalTokens int, budget float64) float64 {
	base := evalRun(r, attention.NewQuantizedExact(), promptLen, evalTokens)
	lo, hi := 1e-6, 0.2
	best := lo
	for iter := 0; iter < 7; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection
		ppl := evalRun(r, attention.NewTokenPicker(mid), promptLen, evalTokens)
		if ppl-base <= budget {
			best = mid
			lo = mid
		} else {
			hi = mid
		}
	}
	return best
}

// CalibrateKeepRatio bisects the SpAtten keep ratio to the same budget.
func CalibrateKeepRatio(r *train.Result, cfg attention.SpAttenConfig, promptLen, evalTokens int, budget float64) float64 {
	base := evalRun(r, attention.NewQuantizedExact(), promptLen, evalTokens)
	lo, hi := 0.02, 1.0
	best := hi
	for iter := 0; iter < 6; iter++ {
		mid := (lo + hi) / 2
		c := cfg
		c.KeepRatio = mid
		ppl := evalRun(r, attention.NewSpAtten(c), promptLen, evalTokens)
		if ppl-base <= budget {
			best = mid
			hi = mid
		} else {
			lo = mid
		}
	}
	return best
}

// traceKernel records sampled attention instances for the cycle simulator
// while delegating the numerical work to exact attention.
type traceKernel struct {
	inner     model.ExactKernel
	sample    int
	max       int
	calls     int
	Instances []arch.Instance
}

// AttendLayer implements model.Kernel: exact attention for the whole layer,
// then per-head sampling at the cadence the per-head harness used.
func (tk *traceKernel) AttendLayer(b model.AttendBatch) {
	tk.inner.AttendLayer(b)
	n, dim := b.TaskN(0), b.HeadDim
	for h := 0; h < b.Heads; h++ {
		tk.calls++
		if len(tk.Instances) >= tk.max || tk.calls%tk.sample != 0 || n < 8 {
			continue
		}
		q, keys := b.TaskQ(h), b.Keys[h]
		var maxMag float32
		for i := 0; i < n; i++ {
			if v := tensor.MaxAbs(keys.Row(i)[:dim]); v > maxMag {
				maxMag = v
			}
		}
		kScale := fixed.ScaleFor(float64(maxMag), 12)
		kRows := make([]fixed.Vector, n)
		for i := 0; i < n; i++ {
			kRows[i] = fixed.QuantizeWithScale(keys.Row(i)[:dim], 12, kScale).Data
		}
		bias := make([]float32, n)
		for i := range bias {
			bias[i] = -b.Slopes[h] * float32(n-1-i)
		}
		tk.Instances = append(tk.Instances, arch.Instance{
			In: core.Inputs{
				Q:      fixed.Quantize(q, 12),
				K:      kRows,
				KScale: kScale,
				Scale:  float64(b.Scale),
				Bias:   bias,
			},
			Dim: dim,
		})
	}
}

// CaptureTraces decodes the held-out stream with exact attention and
// returns sampled instances for the hardware simulator, at the longer
// contexts the memory-bound hardware evaluation requires.
func CaptureTraces(r *train.Result, opts Options) []arch.Instance {
	tk := &traceKernel{sample: opts.TraceSample, max: opts.MaxInstances}
	prompt, eval := opts.TracePrompt, opts.TraceEval
	if prompt+eval+1 > len(r.Held) {
		prompt = len(r.Held) * 2 / 3
		eval = len(r.Held) - prompt - 1
	}
	evalRun(r, tk, prompt, eval)
	return tk.Instances
}

// trainFirst trains (or fetches) the first stand-in of the option set.
func trainFirst(opts Options) *train.Result {
	return train.Get(opts.Models[0].StandIn, opts.TrainOpts)
}
