//go:build !amd64 || purego

package fixed

// Without the amd64 kernel MaskedDots is its Go loop.
var useAsm = false

func maskedDotsAVX2(out []int64, q Vector, rows []Vector, idx []int, mask int16, flush int) bool {
	panic("fixed: masked-dot kernel called without amd64 AVX2")
}
