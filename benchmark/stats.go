package main

import (
	"math"
	"sort"

	"tokenpicker/internal/tensor"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted and is not modified. An empty
// sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0: per-layer metrics of a layer that saw
// no work on a workload read 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nllOf is the negative log-likelihood of target under logits.
func nllOf(logits []float32, target int) float64 {
	return tensor.LogSumExp(logits) - float64(logits[target])
}
