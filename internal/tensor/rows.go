package tensor

import "fmt"

// AxpyRows adds Σ_x w[x]·row_x to out, where row_x is span[x·d : (x+1)·d]
// and d = len(out): the rows of w stored back to back, as RowSource.Span
// returns them. out[j] takes the terms in ascending x, each product rounded
// to float32 before its add, so the result is a row-at-a-time Axpy's, bit
// for bit. len(span) must be at least len(w)·d.
//
// On amd64 with AVX a lane holds one column: out stays in YMM accumulators,
// up to eight (64 columns) per pass over the rows, and each row costs one
// VBROADCASTSS of w[x], a VMULPS and a VADDPS per accumulator, with no
// fused multiply-add. Widths that are not a multiple of 8 take the Go loop.
//
//topick:noalloc
func AxpyRows(out, w, span []float32) {
	d := len(out)
	if len(span) < len(w)*d {
		panic(fmt.Sprintf("tensor: %d rows of width %d in a span of %d", len(w), d, len(span)))
	}
	if useAsm && d > 0 && d%8 == 0 && len(w) > 0 {
		axpyRowsAVX(out, w, span)
		return
	}
	axpyRowsGo(out, w, span)
}

// DotRows writes out[x] = q·row_x, where row_x is span[x·d : (x+1)·d] and
// d = len(q). Each dot sums its products in ascending j, every product
// rounded to float32 before its add, as Dot does. len(span) must be at
// least len(out)·d.
//
// On amd64 with AVX a lane holds one row: the kernel multiplies eight rows
// by four columns of q at a time, transposes the products in registers and
// adds them to the eight rows' accumulator column by column, in ascending
// j. Rows past the last whole group of eight, and widths that are not a
// multiple of 8, take the Go loop.
//
//topick:noalloc
func DotRows(out, q, span []float32) {
	d := len(q)
	if len(span) < len(out)*d {
		panic(fmt.Sprintf("tensor: %d rows of width %d in a span of %d", len(out), d, len(span)))
	}
	x := 0
	if useAsm && d > 0 && d%8 == 0 {
		x = len(out) &^ 7
		if x > 0 {
			dotRowsAVX(out[:x], q, span[:x*d])
		}
	}
	dotRowsGo(out[x:], q, span[x*d:])
}

// axpyRowsGo is AxpyRows without the kernel: four rows per pass over out,
// so out[j] is loaded and stored once per four rows. The float32
// conversions round every product, which keeps a compiler that fuses
// multiply-adds (arm64, ppc64le, s390x, riscv64) on the amd64 bits.
func axpyRowsGo(out, w, span []float32) {
	d := len(out)
	x := 0
	for ; x+4 <= len(w); x += 4 {
		r := span[x*d : (x+4)*d]
		r0, r1, r2, r3 := r[:d], r[d:2*d], r[2*d:3*d], r[3*d:]
		w0, w1, w2, w3 := w[x], w[x+1], w[x+2], w[x+3]
		for j, o := range out {
			o += float32(w0 * r0[j])
			o += float32(w1 * r1[j])
			o += float32(w2 * r2[j])
			o += float32(w3 * r3[j])
			out[j] = o
		}
	}
	for ; x < len(w); x++ {
		r, wx := span[x*d:(x+1)*d], w[x]
		for j := range out {
			out[j] += float32(wx * r[j])
		}
	}
}

// dotRowsGo is DotRows without the kernel: four rows per pass, one
// accumulator each, so four independent sums overlap where one would wait
// out the add latency. The conversions keep every product rounded, as in
// axpyRowsGo.
func dotRowsGo(out, q, span []float32) {
	d := len(q)
	x := 0
	for ; x+4 <= len(out); x += 4 {
		r := span[x*d : (x+4)*d]
		k0, k1, k2, k3 := r[:d], r[d:2*d], r[2*d:3*d], r[3*d:]
		var a0, a1, a2, a3 float32
		for j, v := range q {
			a0 += float32(v * k0[j])
			a1 += float32(v * k1[j])
			a2 += float32(v * k2[j])
			a3 += float32(v * k3[j])
		}
		o := out[x : x+4 : x+4]
		o[0], o[1], o[2], o[3] = a0, a1, a2, a3
	}
	for ; x < len(out); x++ {
		k := span[x*d : (x+1)*d]
		var a float32
		for j, v := range q {
			a += float32(v * k[j])
		}
		out[x] = a
	}
}

// UseKernels turns the package's assembly kernels (the panel GEMV, AxpyRows
// and DotRows) on or off and returns the previous setting; on turns them on
// only where the CPU and the build have them. Tests and benchmarks of other
// packages use it to run the Go fallbacks on the same inputs. It must not
// be called while another goroutine runs a kernel.
func UseKernels(on bool) (was bool) {
	was = useAsm
	useAsm = on && hasAVX
	return was
}
