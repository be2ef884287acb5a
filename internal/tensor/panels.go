package tensor

import "fmt"

// PanelRows is the panel height: the number of output rows one vector
// register carries, one row per lane.
const PanelRows = 8

// Panels is a weight matrix packed for the panel GEMV. Rows are grouped in
// panels of PanelRows; within a panel the matrix is stored column-major, so
// one 8-float load holds column j of eight consecutive rows:
//
//	data[(i/8)·cols·8 + j·8 + i%8] = W[i][j]
//
// The kernel broadcasts v[j], multiplies it by that load and adds the
// product into one accumulator per panel: lane l of panel k carries row
// 8k+l's whole sum, in ascending j, with no fused multiply-add. Every output
// is therefore the float32 sum MatVec computes, bit for bit.
//
// Only whole panels are packed. Rows past the last whole panel, and every
// row where the panel kernel cannot run (amd64 without AVX, other GOARCHes,
// the purego build tag), go through MatVec over the row-major source.
type Panels struct {
	// Mat is the row-major source. It is not copied: it must not change
	// after Pack, or the packed copy and the source disagree.
	Mat  *Mat
	data []float32 // whole panels, packed; nil when the kernel cannot run
}

// Pack packs m for MatVecRange. It allocates a copy of m's whole panels only
// when the panel kernel can run on this CPU.
func Pack(m *Mat) *Panels {
	p := &Panels{Mat: m}
	if !hasAVX {
		return p
	}
	cols := m.Cols
	full := m.Rows / PanelRows * PanelRows
	p.data = make([]float32, full*cols)
	for i := 0; i < full; i++ {
		base := i/PanelRows*cols*PanelRows + i%PanelRows
		for j, w := range m.Row(i) {
			p.data[base+j*PanelRows] = w
		}
	}
	return p
}

// MatVecRange computes rows [o0, o1) of Mat·v into out (length o1-o0). o0
// must start a panel (a multiple of PanelRows) or be Mat.Rows; o1 may be any
// row up to Mat.Rows. Each output equals MatVec's for the same row, so a GEMV
// split into ranges at multiples of PanelRows gives the whole-matrix bits.
func (p *Panels) MatVecRange(out []float32, o0, o1 int, v []float32) {
	m := p.Mat
	if o0 < 0 || (o0%PanelRows != 0 && o0 != m.Rows) || o1 < o0 || o1 > m.Rows || len(out) != o1-o0 || len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: panel matvec rows [%d,%d) of %dx%d, out %d, v %d",
			o0, o1, m.Rows, m.Cols, len(out), len(v)))
	}
	cols := m.Cols
	hi := o0 // rows [o0, hi) run on the panel kernel
	if useAsm && p.data != nil && cols > 0 {
		hi = max(o0, o1/PanelRows*PanelRows)
	}
	if hi > o0 {
		gemvPanels(out[:hi-o0], p.data[o0*cols:hi*cols], v)
	}
	if hi < o1 {
		rest := Mat{Rows: o1 - hi, Cols: cols, Data: m.Data[hi*cols : o1*cols]}
		MatVec(out[hi-o0:], &rest, v)
	}
}
