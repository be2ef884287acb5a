//go:build amd64 && !purego

package fixed

import "tokenpicker/internal/tensor"

// useAsm routes MaskedDots through the AVX2 kernel. Tests clear it to force
// the Go loop on the same inputs.
var useAsm = tensor.HasAVX2()

// maskedDotsAVX2 is MaskedDots' kernel over the whole 16-element blocks of
// q; see maskeddots_amd64.s.
//
//go:noescape
func maskedDotsAVX2(out []int64, q Vector, rows []Vector, idx []int, mask int16, flush int) bool
