package fixed

import (
	"fmt"
	"math"
)

// Vector is a quantized vector of two's-complement integers. Elements are
// stored sign-extended in int16 regardless of the nominal bit width.
type Vector []int16

// Quantized couples a quantized vector with the scale used to produce it.
// Dequantized value = Scale * float64(element).
type Quantized struct {
	Data  Vector
	Scale float64
	Bits  uint
}

// QuantizeRowInto quantizes src into dst (which must have equal length) at a
// caller-provided symmetric scale, rounding to nearest and saturating to the
// representable range. This is the single quantization inner loop shared by
// Quantize, QuantizeWithScale, and QuantCache so every code path rounds and
// clamps bit-identically.
func QuantizeRowInto(dst []int16, src []float32, scale float64, bits uint) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("fixed: quantize length mismatch %d vs %d", len(dst), len(src)))
	}
	qmax := float64(int32(1)<<(bits-1) - 1)
	for i, x := range src {
		v := math.Round(float64(x) / scale)
		if v > qmax {
			v = qmax
		}
		if v < -qmax-1 {
			v = -qmax - 1
		}
		dst[i] = int16(v)
	}
}

// Quantize symmetrically quantizes xs to signed integers of the given bit
// width. The scale is chosen so the largest magnitude maps to the largest
// representable value; a zero vector quantizes with scale 1 to all zeros.
func Quantize(xs []float32, bits uint) Quantized {
	return QuantizeInto(nil, xs, bits)
}

// QuantizeInto is Quantize reusing dst's storage when its capacity suffices;
// decode hot paths pass their previous Data back in to stay allocation-free.
func QuantizeInto(dst Vector, xs []float32, bits uint) Quantized {
	if bits < 2 || bits > 15 {
		panic(fmt.Sprintf("fixed: unsupported bit width %d", bits))
	}
	maxMag := 0.0
	for _, x := range xs {
		if m := math.Abs(float64(x)); m > maxMag {
			maxMag = m
		}
	}
	scale := 1.0
	if maxMag > 0 {
		scale = maxMag / float64(int32(1)<<(bits-1)-1)
	}
	if cap(dst) < len(xs) {
		dst = make(Vector, len(xs))
	}
	dst = dst[:len(xs)]
	QuantizeRowInto(dst, xs, scale, bits)
	return Quantized{Data: dst, Scale: scale, Bits: bits}
}

// QuantizeWithScale quantizes xs using a caller-provided scale (e.g. a
// per-tensor scale shared by every key vector in a KV cache so partial dot
// products across tokens are comparable).
func QuantizeWithScale(xs []float32, bits uint, scale float64) Quantized {
	if bits < 2 || bits > 15 {
		panic(fmt.Sprintf("fixed: unsupported bit width %d", bits))
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		panic(fmt.Sprintf("fixed: invalid scale %v", scale))
	}
	out := make(Vector, len(xs))
	QuantizeRowInto(out, xs, scale, bits)
	return Quantized{Data: out, Scale: scale, Bits: bits}
}

// ScaleFor returns the symmetric-quantization scale that Quantize would pick
// for the given maximum magnitude and bit width.
func ScaleFor(maxMag float64, bits uint) float64 {
	qmax := float64(int32(1)<<(bits-1) - 1)
	if maxMag <= 0 {
		return 1
	}
	return maxMag / qmax
}

// Dequantize expands the quantized vector back to float32.
func (q Quantized) Dequantize() []float32 {
	out := make([]float32, len(q.Data))
	for i, v := range q.Data {
		out[i] = float32(q.Scale * float64(v))
	}
	return out
}

// Dot computes the exact integer dot product of two quantized vectors.
// It panics if the lengths differ.
func Dot(a, b Vector) int64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("fixed: dot length mismatch %d vs %d", len(a), len(b)))
	}
	return MaskedDot(a, b, -1)
}

// MaxMag returns the largest absolute element value.
func (v Vector) MaxMag() int {
	m := 0
	for _, x := range v {
		a := int(x)
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}
