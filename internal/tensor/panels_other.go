//go:build !amd64 || purego

package tensor

// Without the amd64 kernel Pack packs nothing and MatVecRange is MatVec.
const hasAVX = false

var useAsm = false

func gemvPanels(out, p, x []float32) {
	panic("tensor: panel kernel called without amd64 AVX")
}
