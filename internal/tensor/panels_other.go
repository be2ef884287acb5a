//go:build !amd64 || purego

package tensor

// Without the amd64 kernel Pack packs nothing and MatVecRange is MatVec.
const hasAVX = false

var useAsm = false

// HasAVX2 is false: integer AVX2 kernels take their Go loops.
func HasAVX2() bool { return false }

func gemvPanels(out, p, x []float32) {
	panic("tensor: panel kernel called without amd64 AVX")
}
