//go:build amd64 && !purego

package tensor

// hasAVX reports whether the CPU and the OS support AVX: CPUID.1:ECX bits
// 27 (OSXSAVE) and 28 (AVX), and XCR0 bits 1 and 2 (the OS saves XMM and
// YMM state). The panel kernel needs nothing newer.
var hasAVX = detectAVX()

// hasAVX2 adds CPUID.7.0:EBX bit 5 (AVX2, the 256-bit integer forms) to
// hasAVX.
var hasAVX2 = hasAVX && detectAVX2()

// HasAVX2 reports whether the CPU and the OS support AVX2. Packages with
// integer AVX2 kernels read it, so the CPUID gate lives in this one place.
func HasAVX2() bool { return hasAVX2 }

// useAsm routes MatVecRange's whole panels, AxpyRows and DotRows through
// their kernels. Tests clear it (UseKernels(false) from other packages) to
// force the Go fallbacks on the same inputs.
var useAsm = hasAVX

func detectAVX() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

func detectAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx&avx2 != 0
}

// cpuid executes CPUID with EAX=eaxArg and ECX=ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (XGETBV with ECX=0).
func xgetbv() (eax, edx uint32)

// gemvPanels computes out = W·x for the whole panels packed in p:
// len(out) is a multiple of PanelRows, len(p) = len(out)·len(x), and
// len(x) > 0. Four panels (32 rows) per pass share each broadcast of x[j];
// a last pass takes the remaining panels one at a time.
//
//go:noescape
func gemvPanels(out, p, x []float32)

// axpyRowsAVX is AxpyRows' kernel: len(out) is a positive multiple of 8,
// len(w) > 0 and len(span) >= len(w)·len(out). See rows_amd64.s.
//
//go:noescape
func axpyRowsAVX(out, w, span []float32)

// dotRowsAVX is DotRows' kernel over whole groups of eight rows: len(out)
// and len(q) are positive multiples of 8 and len(span) = len(out)·len(q).
// See rows_amd64.s.
//
//go:noescape
func dotRowsAVX(out, q, span []float32)
