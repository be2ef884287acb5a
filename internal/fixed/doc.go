// Package fixed implements the two's-complement fixed-point substrate used
// throughout the Token-Picker reproduction: symmetric quantization of
// floating-point vectors to narrow signed integers, MSB-first segmentation of
// those integers into bit chunks (the unit of DRAM transfer in the paper),
// conservative dot-product margins computed from a fully-known query vector
// (paper Eq. 4 and Fig. 4b), and the 32-bit fixed-point exp/ln units that the
// ToPick PE lane uses for probability estimation.
//
// The margin construction is the arithmetic heart of the paper. For an N-bit
// two's-complement integer a(N-1)...a(0) every bit except the sign bit
// contributes a non-negative amount. When only the leading bits of one
// operand of a dot product are known, setting the unknown bits to all-ones
// for positive query elements (all-zeros for negative ones) yields the
// maximum possible score, and the converse yields the minimum. Both margins
// depend only on the query and the number of unknown bits, so they are
// computed once per query by the Margin Generator and reused for every key.
//
// The estimator's integer work is MaskedDots: one query against a list of
// stored rows, each row masked to one chunk. On amd64 with AVX2 it is an
// assembly kernel whose products and pair sums live in int32 lanes, so its
// one proof obligation is int32 overflow. With every operand a TotalBits-wide
// two's-complement value (ChunkSpec.TotalBits <= 15, as every quantizer and
// chunk mask here yields) a product is at most 2^(2·TotalBits-2) in
// magnitude. The kernel widens its lanes to int64 every 2^(31-2·TotalBits)-1
// sixteen-element blocks (127 at 12 bits, 1 at 15), so no int32 sum reaches
// 2^31 at any row width, and every result equals the Go loop's int64 sum bit
// for bit. Outside that bound, without AVX2, on other GOARCHes and under the
// purego tag the Go loop runs.
package fixed
