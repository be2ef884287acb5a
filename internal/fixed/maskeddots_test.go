package fixed

import (
	"fmt"
	"math/rand"
	"testing"
)

// forceGoLoop routes MaskedDots through its Go loop until the test ends.
func forceGoLoop(t testing.TB) {
	old := useAsm
	useAsm = false
	t.Cleanup(func() { useAsm = old })
}

// bothPaths runs f once on the kernel (the Go loop where the CPU or the
// build has none) and once on the forced Go loop.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	for _, path := range []string{"kernel", "fallback"} {
		t.Run(path, func(t *testing.T) {
			if path == "fallback" {
				forceGoLoop(t)
			}
			f(t)
		})
	}
}

// specMasks returns -1 and every chunk mask of every ChunkSpec with
// TotalBits bits, each once.
func specMasks(bits uint) []int16 {
	masks := []int16{-1}
	seen := map[int16]bool{-1: true}
	for c := uint(1); c <= bits; c++ {
		cs := ChunkSpec{TotalBits: bits, ChunkBits: c}
		for b := 0; b < cs.NumChunks(); b++ {
			if m := cs.ChunkMask(b); !seen[m] {
				seen[m] = true
				masks = append(masks, m)
			}
		}
	}
	return masks
}

// TestMaskedDotsBitIdenticalToMaskedDot pins the list kernel to MaskedDot
// on every entry: every ChunkSpec from 2 to 15 bits with every chunk mask
// and -1; rows of width 16, 32, 48, 64 and 128 and of widths that leave a
// tail (1, 15, 17, 100); rows longer than the query; uniform elements, the
// overflow edge (every element of q and the rows -2^(bits-1), the largest
// positive product), and the most negative products; and empty, short,
// repeated and shuffled index lists.
func TestMaskedDotsBitIdenticalToMaskedDot(t *testing.T) {
	widths := []int{1, 15, 16, 17, 32, 48, 64, 100, 128}
	lists := [][]int{
		{}, {0}, {3, 3}, {1, 2, 3}, {4, 0, 2, 1},
		{8, 0, 7, 1, 6}, {5, 5, 5, 5, 5, 5, 5}, {2, 4, 6, 8, 1, 3, 5, 7, 0},
	}
	const nRows = 9
	bothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for bits := uint(2); bits <= 15; bits++ {
			lim := int16(1) << (bits - 1)
			masks := specMasks(bits)
			for _, w := range widths {
				for kind := 0; kind < 4; kind++ {
					val := func(query bool) int16 {
						switch kind {
						case 1: // all -2^(bits-1): the overflow edge
							return -lim
						case 2: // extremes, either sign
							if rng.Intn(2) == 0 {
								return -lim
							}
							return lim - 1
						case 3: // q = -2^(bits-1) against 2^(bits-1)-1
							if query {
								return -lim
							}
							return lim - 1
						}
						return randVal(rng, bits)
					}
					q := make(Vector, w)
					for j := range q {
						q[j] = val(true)
					}
					rows := make([]Vector, nRows)
					for r := range rows {
						rows[r] = make(Vector, w+r%3) // rows may be longer than q
						for j := range rows[r] {
							rows[r][j] = val(false)
						}
					}
					lists = append(lists[:8], rng.Perm(nRows))
					for _, m := range masks {
						for _, idx := range lists {
							out := make([]int64, len(idx))
							MaskedDots(out, q, rows, idx, m, bits)
							for x, i := range idx {
								if want := MaskedDot(q, rows[i], m); out[x] != want {
									t.Fatalf("bits %d width %d kind %d mask %#x list %v: out[%d] = %d, MaskedDot %d",
										bits, w, kind, uint16(m), idx, x, out[x], want)
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestMaskedDotsLongList covers lists longer than one pass at the default
// spec, with every entry of a 1,536-row context and of a random survivor
// subset, at the estimator's head widths.
func TestMaskedDotsLongList(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		cs := DefaultChunkSpec
		for _, w := range []int{32, 64} {
			q, rows := randRows(rng, cs.TotalBits, 1536, w)
			all := make([]int, len(rows))
			for i := range all {
				all[i] = i
			}
			some := rng.Perm(len(rows))[:rng.Intn(len(rows))]
			for _, idx := range [][]int{all, some} {
				for b := -1; b < cs.NumChunks(); b++ {
					m := int16(-1)
					if b >= 0 {
						m = cs.ChunkMask(b)
					}
					out := make([]int64, len(idx))
					MaskedDots(out, q, rows, idx, m, cs.TotalBits)
					for x, i := range idx {
						if want := MaskedDot(q, rows[i], m); out[x] != want {
							t.Fatalf("width %d mask %#x: out[%d] = %d, MaskedDot %d", w, uint16(m), x, out[x], want)
						}
					}
				}
			}
		}
	})
}

// TestMaskedDotsPanicsOnBadEntry checks that an index outside rows and a
// row shorter than q panic on both paths, as MaskedDot's length check does,
// instead of reading past a row: row 5 is short with no capacity to spare,
// row 6 is short with its last element still within its capacity.
func TestMaskedDotsPanicsOnBadEntry(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		q, rows := randRows(rand.New(rand.NewSource(1)), 12, 7, 32)
		rows[5] = rows[5][:31:31]
		rows[6] = rows[6][:31]
		for _, idx := range [][]int{{0, 1, 7}, {0, -1}, {2, 3, 4, 0, 5}, {5}, {2, 3, 4, 0, 6}, {6}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("list %v: no panic", idx)
					}
				}()
				MaskedDots(make([]int64, len(idx)), q, rows, idx, -1, 12)
			}()
		}
	})
}

// randRows returns a random bits-wide query and n rows of width w.
func randRows(rng *rand.Rand, bits uint, n, w int) (Vector, []Vector) {
	q := make(Vector, w)
	for j := range q {
		q[j] = randVal(rng, bits)
	}
	rows := make([]Vector, n)
	for i := range rows {
		rows[i] = make(Vector, w)
		for j := range rows[i] {
			rows[i][j] = randVal(rng, bits)
		}
	}
	return q, rows
}

// BenchmarkMaskedDots scores a first estimator wave, the chunk-0 partials
// of 1,536 keys in the estimator's visiting order, at head widths 32 and
// 64: the Go loop (MaskedDot4 four keys at a time) against the kernel.
func BenchmarkMaskedDots(b *testing.B) {
	const n = 1536
	cs := DefaultChunkSpec
	idx := []int{n - 1, 0}
	for i := n - 2; i >= 1; i-- {
		idx = append(idx, i)
	}
	out := make([]int64, n)
	for _, w := range []int{32, 64} {
		q, rows := randRows(rand.New(rand.NewSource(1)), cs.TotalBits, n, w)
		for _, path := range []string{"go", "kernel"} {
			b.Run(fmt.Sprintf("dim%d/%s", w, path), func(b *testing.B) {
				if path == "go" {
					forceGoLoop(b)
				} else if !useAsm {
					b.Skip("no AVX2 kernel in this build")
				}
				for b.Loop() {
					MaskedDots(out, q, rows, idx, cs.ChunkMask(0), cs.TotalBits)
				}
			})
		}
	}
}
