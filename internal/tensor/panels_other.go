//go:build !amd64 || purego

package tensor

// Without the amd64 kernels Pack packs nothing, MatVecRange is MatVec, and
// AxpyRows and DotRows run their Go loops.
const hasAVX = false

var useAsm = false

// HasAVX2 is false: integer AVX2 kernels take their Go loops.
func HasAVX2() bool { return false }

func gemvPanels(out, p, x []float32) {
	panic("tensor: panel kernel called without amd64 AVX")
}

func axpyRowsAVX(out, w, span []float32) {
	panic("tensor: row kernel called without amd64 AVX")
}

func dotRowsAVX(out, q, span []float32) {
	panic("tensor: row kernel called without amd64 AVX")
}
