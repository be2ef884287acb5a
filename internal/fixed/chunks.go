package fixed

import "fmt"

// ChunkSpec describes how a two's-complement integer of TotalBits is split
// into NumChunks bit chunks of ChunkBits each, most-significant chunk first.
// The ToPick default is 12 bits in three 4-bit chunks (paper §4); other
// widths are supported for the chunk-width ablation.
type ChunkSpec struct {
	TotalBits uint // operand precision, 2..15
	ChunkBits uint // bits per chunk, 1..TotalBits
}

// DefaultChunkSpec is the paper's configuration: 12-bit operands streamed as
// three 4-bit chunks.
var DefaultChunkSpec = ChunkSpec{TotalBits: 12, ChunkBits: 4}

// Validate reports whether the spec is internally consistent.
//
//topick:alloc-ok error construction on the cold validation path
func (cs ChunkSpec) Validate() error {
	if cs.TotalBits < 2 || cs.TotalBits > 15 {
		return fmt.Errorf("fixed: total bits %d out of range [2,15]", cs.TotalBits)
	}
	if cs.ChunkBits < 1 || cs.ChunkBits > cs.TotalBits {
		return fmt.Errorf("fixed: chunk bits %d out of range [1,%d]", cs.ChunkBits, cs.TotalBits)
	}
	return nil
}

// NumChunks is the number of chunks per element (the last chunk may be
// narrower than ChunkBits when ChunkBits does not divide TotalBits).
func (cs ChunkSpec) NumChunks() int {
	return int((cs.TotalBits + cs.ChunkBits - 1) / cs.ChunkBits)
}

// bitsBefore returns how many leading bits are covered by chunks 0..b-1.
func (cs ChunkSpec) bitsBefore(b int) uint {
	bits := uint(b) * cs.ChunkBits
	if bits > cs.TotalBits {
		bits = cs.TotalBits
	}
	return bits
}

// KnownBits returns the number of leading bits known after receiving chunks
// 0..b inclusive.
func (cs ChunkSpec) KnownBits(b int) uint {
	return cs.bitsBefore(b + 1)
}

// UnknownAfter returns the largest value the unknown low bits can add after
// chunks 0..b have been received: 2^(unknown bits) - 1. After the final
// chunk it is zero.
func (cs ChunkSpec) UnknownAfter(b int) int64 {
	known := cs.KnownBits(b)
	return int64(1)<<(cs.TotalBits-known) - 1
}

// ChunkWidth returns the width in bits of chunk b (the final chunk may be
// narrower).
func (cs ChunkSpec) ChunkWidth(b int) uint {
	lo := cs.bitsBefore(b)
	hi := cs.bitsBefore(b + 1)
	return hi - lo
}

// Extract returns chunk b of value v, where v is interpreted as a
// TotalBits-wide two's-complement integer. The chunk is returned as the raw
// bit pattern (unsigned), MSB-chunk first: chunk 0 holds the sign bit.
func (cs ChunkSpec) Extract(v int16, b int) uint16 {
	if b < 0 || b >= cs.NumChunks() {
		panic(fmt.Sprintf("fixed: chunk index %d out of range", b))
	}
	u := uint16(v) & (uint16(1)<<cs.TotalBits - 1) // raw TotalBits pattern
	width := cs.ChunkWidth(b)
	shift := cs.TotalBits - cs.KnownBits(b)
	return (u >> shift) & (uint16(1)<<width - 1)
}

// Assemble reconstructs the signed value from all chunks. It panics if the
// number of chunks is wrong.
func (cs ChunkSpec) Assemble(chunks []uint16) int16 {
	if len(chunks) != cs.NumChunks() {
		panic(fmt.Sprintf("fixed: assemble got %d chunks, want %d", len(chunks), cs.NumChunks()))
	}
	var u uint16
	for b, c := range chunks {
		width := cs.ChunkWidth(b)
		shift := cs.TotalBits - cs.KnownBits(b)
		u |= (c & (uint16(1)<<width - 1)) << shift
	}
	return cs.signExtend(u)
}

// signExtend interprets the low TotalBits of u as two's complement.
func (cs ChunkSpec) signExtend(u uint16) int16 {
	mask := uint16(1)<<cs.TotalBits - 1
	u &= mask
	if u&(1<<(cs.TotalBits-1)) != 0 {
		return int16(u) - int16(1)<<cs.TotalBits
	}
	return int16(u)
}

// Known returns the signed value implied by chunks 0..b with every unknown
// low bit set to zero. Because chunk 0 carries the sign bit, the result is a
// valid lower-bits-zeroed representative for any b >= 0: the exact value
// equals Known(v,b) + r with 0 <= r <= UnknownAfter(b). On a sign-extended
// int16 that is one mask: clear the unknown low bits, keep everything above.
func (cs ChunkSpec) Known(v int16, b int) int16 {
	return v & (-1 << (cs.TotalBits - cs.KnownBits(b)))
}

// ChunkMask returns the int16 mask that reads chunk b straight out of a
// sign-extended stored value: v & ChunkMask(b) equals
// ChunkContribution(Extract(v, b), b). Chunk 0's mask keeps every bit from
// its low edge upward, so the sign extension makes it the signed top chunk;
// later masks are the bare digit field, a non-negative magnitude. The masks
// of one spec partition the 16-bit word.
func (cs ChunkSpec) ChunkMask(b int) int16 {
	shift := cs.TotalBits - cs.KnownBits(b)
	if b == 0 {
		return -1 << shift
	}
	return int16((uint16(1)<<cs.ChunkWidth(b) - 1) << shift)
}

// ChunkContribution returns the additive contribution of chunk b's bit
// pattern to the signed value, so that summing contributions for chunks
// 0..NumChunks-1 reconstructs the exact value. Chunk 0 is sign-significant;
// later chunks are pure non-negative magnitude.
func (cs ChunkSpec) ChunkContribution(chunk uint16, b int) int64 {
	width := cs.ChunkWidth(b)
	shift := cs.TotalBits - cs.KnownBits(b)
	c := int64(chunk & (uint16(1)<<width - 1))
	if b == 0 && c&(1<<(width-1)) != 0 {
		// Top chunk: its MSB is the sign bit of the full value, so the chunk
		// is itself a two's-complement number scaled by 2^shift.
		c -= 1 << width
	}
	return c << shift
}

// PartialDot computes the dot product of a fully-known query vector q with a
// key vector whose leading chunks 0..b are known (unknown bits treated as
// zero). This is the partial score ps_b of the paper.
func (cs ChunkSpec) PartialDot(q, k Vector, b int) int64 {
	if len(q) != len(k) {
		panic(fmt.Sprintf("fixed: partial dot length mismatch %d vs %d", len(q), len(k)))
	}
	var acc int64
	for i := range q {
		acc += int64(q[i]) * int64(cs.Known(k[i], b))
	}
	return acc
}

// ChunkDot computes the contribution of chunk b alone to the dot product:
// PartialDot(q,k,b) - PartialDot(q,k,b-1). This is what a PE lane computes in
// one cycle when a downstream chunk arrives from DRAM.
func (cs ChunkSpec) ChunkDot(q, k Vector, b int) int64 {
	if len(q) != len(k) {
		panic(fmt.Sprintf("fixed: chunk dot length mismatch %d vs %d", len(q), len(k)))
	}
	return MaskedDot(q, k, cs.ChunkMask(b))
}

// MaskedDot returns Σ q[j]·(k[j] & mask) over len(q) elements; k must be at
// least as long. With mask = ChunkMask(b) it is the chunk-b partial dot read
// directly from stored int16 rows (mask -1 gives the full dot), which is the
// estimator's inner loop: unrolled four ways, one bounds check per call.
func MaskedDot(q, k Vector, mask int16) int64 {
	if len(k) < len(q) {
		panic(fmt.Sprintf("fixed: masked dot of %d elements over a row of %d", len(q), len(k)))
	}
	k = k[:len(q)]
	var a0, a1, a2, a3 int64
	for len(q) >= 4 && len(k) >= 4 {
		a0 += int64(q[0]) * int64(k[0]&mask)
		a1 += int64(q[1]) * int64(k[1]&mask)
		a2 += int64(q[2]) * int64(k[2]&mask)
		a3 += int64(q[3]) * int64(k[3]&mask)
		q, k = q[4:], k[4:]
	}
	for j, x := range q {
		a0 += int64(x) * int64(k[j]&mask)
	}
	return a0 + a1 + a2 + a3
}

// MaskedDot4 is MaskedDot of one query against four keys in one pass: each
// load of q[j] feeds four rows, one accumulator per row. The sums are integer
// sums, exact in any order, so di equals MaskedDot(q, ki, mask) for every i
// (a row may be passed in several slots). Every ki must be at least as long
// as q. Each element is widened before it is masked, with the mask widened
// too: sign extension commutes with AND, and the widening load then needs no
// separate extend.
func MaskedDot4(q, k0, k1, k2, k3 Vector, mask int16) (d0, d1, d2, d3 int64) {
	n := len(q)
	if min(len(k0), len(k1), len(k2), len(k3)) < n {
		panic(fmt.Sprintf("fixed: masked dot of %d elements over rows of %d, %d, %d and %d",
			n, len(k0), len(k1), len(k2), len(k3)))
	}
	k0, k1, k2, k3 = k0[:n], k1[:n], k2[:n], k3[:n]
	m := int64(mask)
	for j, x := range q {
		w := int64(x)
		d0 += w * (int64(k0[j]) & m)
		d1 += w * (int64(k1[j]) & m)
		d2 += w * (int64(k2[j]) & m)
		d3 += w * (int64(k3[j]) & m)
	}
	return d0, d1, d2, d3
}

// MaskedDots writes out[x] = MaskedDot(q, rows[idx[x]], mask) for every
// entry of idx, which must be as long as out: one call scores a whole list,
// the chunk-b partials of an estimator wave's survivors or (mask -1, idx
// every row) the full dots of a scoring pass. Every listed row must be at
// least as long as q. The sums are exact integers, so each out[x] is
// MaskedDot's, bit for bit, on either path.
//
// On amd64 with AVX2 the whole 16-element blocks of q run through one
// assembly call, four rows per pass: VPAND with the mask, VPMADDWD into
// int32 lanes, VPADDD. A tail of q shorter than 16 is added by MaskedDot.
// The one proof obligation is int32 overflow, and bits carries it: every
// q[j] and every rows[i][j]&mask must lie in [-2^(bits-1), 2^(bits-1)-1].
// Values quantized at ChunkSpec.TotalBits = bits stay there under any
// ChunkMask and under -1. A product is then at most 2^(2·bits-2) in
// magnitude and a VPMADDWD pair sum at most 2^(2·bits-1), so a lane that
// has added m blocks is at most m·2^(2·bits-1) and the VPHADDD of two such
// lanes at most m·2^(2·bits). The kernel folds its lanes into int64 every
// m = 2^(31-2·bits) - 1 blocks (127 at the default 12 bits, 1 at 15), which
// keeps every int32 sum below 2^31 at any row width. The Go loop, MaskedDot4
// four entries at a time, runs instead outside 1 <= bits <= 15, for q
// shorter than 16, without AVX2, on other GOARCHes and under the purego tag.
//
//topick:noalloc
func MaskedDots(out []int64, q Vector, rows []Vector, idx []int, mask int16, bits uint) {
	if len(idx) != len(out) {
		panic(fmt.Sprintf("fixed: %d indices for %d dots", len(idx), len(out)))
	}
	n16 := len(q) &^ 15
	if !useAsm || n16 == 0 || bits < 1 || bits > 15 {
		maskedDotsGo(out, q, rows, idx, mask)
		return
	}
	if !maskedDotsAVX2(out, q, rows, idx, mask, 1<<(31-2*bits)-1) {
		maskedDotsGo(out, q, rows, idx, mask) // the bad entry fails as in MaskedDot
		return
	}
	if n16 < len(q) {
		for x, i := range idx {
			out[x] += MaskedDot(q[n16:], rows[i][n16:], mask)
		}
	}
}

// maskedDotsGo is MaskedDots without the kernel.
func maskedDotsGo(out []int64, q Vector, rows []Vector, idx []int, mask int16) {
	x := 0
	for ; x+4 <= len(idx); x += 4 {
		out[x], out[x+1], out[x+2], out[x+3] = MaskedDot4(q,
			rows[idx[x]], rows[idx[x+1]], rows[idx[x+2]], rows[idx[x+3]], mask)
	}
	for ; x < len(idx); x++ {
		out[x] = MaskedDot(q, rows[idx[x]], mask)
	}
}

// ExtractAll splits every element of k into chunks; result[b][i] is chunk b
// of element i. This mirrors the DRAM layout: chunk b of the whole vector is
// stored contiguously so it can be fetched as one burst.
func (cs ChunkSpec) ExtractAll(k Vector) [][]uint16 {
	n := cs.NumChunks()
	out := make([][]uint16, n)
	for b := 0; b < n; b++ {
		row := make([]uint16, len(k))
		for i, v := range k {
			row[i] = cs.Extract(v, b)
		}
		out[b] = row
	}
	return out
}

// ChunkBytes returns the size in bytes of one chunk of a dim-element vector
// as it travels over the memory bus (bits are packed).
func (cs ChunkSpec) ChunkBytes(dim, b int) int {
	bits := int(cs.ChunkWidth(b)) * dim
	return (bits + 7) / 8
}

// VectorBytes returns the packed size in bytes of a full dim-element vector
// at TotalBits precision.
func (cs ChunkSpec) VectorBytes(dim int) int {
	bits := int(cs.TotalBits) * dim
	return (bits + 7) / 8
}
