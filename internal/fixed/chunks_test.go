package fixed

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func allSpecs() []ChunkSpec {
	return []ChunkSpec{
		{TotalBits: 12, ChunkBits: 4}, // paper default
		{TotalBits: 12, ChunkBits: 2},
		{TotalBits: 12, ChunkBits: 6},
		{TotalBits: 12, ChunkBits: 5}, // non-dividing width
		{TotalBits: 8, ChunkBits: 4},
		{TotalBits: 15, ChunkBits: 4},
		{TotalBits: 12, ChunkBits: 12}, // single chunk
	}
}

func randVal(rng *rand.Rand, bits uint) int16 {
	lim := int32(1) << (bits - 1)
	return int16(rng.Int31n(2*lim) - lim)
}

func TestChunkSpecValidate(t *testing.T) {
	bad := []ChunkSpec{
		{TotalBits: 1, ChunkBits: 1},
		{TotalBits: 16, ChunkBits: 4},
		{TotalBits: 12, ChunkBits: 0},
		{TotalBits: 12, ChunkBits: 13},
	}
	for _, cs := range bad {
		if cs.Validate() == nil {
			t.Errorf("spec %+v should be invalid", cs)
		}
	}
	for _, cs := range allSpecs() {
		if err := cs.Validate(); err != nil {
			t.Errorf("spec %+v should be valid: %v", cs, err)
		}
	}
}

func TestNumChunks(t *testing.T) {
	cases := []struct {
		cs   ChunkSpec
		want int
	}{
		{ChunkSpec{12, 4}, 3},
		{ChunkSpec{12, 2}, 6},
		{ChunkSpec{12, 5}, 3},
		{ChunkSpec{12, 12}, 1},
		{ChunkSpec{8, 3}, 3},
	}
	for _, c := range cases {
		if got := c.cs.NumChunks(); got != c.want {
			t.Errorf("%+v NumChunks=%d, want %d", c.cs, got, c.want)
		}
	}
}

func TestExtractAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, cs := range allSpecs() {
		for trial := 0; trial < 200; trial++ {
			v := randVal(rng, cs.TotalBits)
			chunks := make([]uint16, cs.NumChunks())
			for b := range chunks {
				chunks[b] = cs.Extract(v, b)
			}
			if got := cs.Assemble(chunks); got != v {
				t.Fatalf("%+v: assemble(extract(%d)) = %d", cs, v, got)
			}
		}
	}
}

func TestKnownDecomposition(t *testing.T) {
	// Exact value = Known(v,b) + r with 0 <= r <= UnknownAfter(b).
	rng := rand.New(rand.NewSource(3))
	for _, cs := range allSpecs() {
		for trial := 0; trial < 200; trial++ {
			v := randVal(rng, cs.TotalBits)
			for b := 0; b < cs.NumChunks(); b++ {
				known := int64(cs.Known(v, b))
				r := int64(v) - known
				if r < 0 || r > cs.UnknownAfter(b) {
					t.Fatalf("%+v v=%d b=%d: residual %d outside [0,%d]",
						cs, v, b, r, cs.UnknownAfter(b))
				}
			}
			// Final chunk: exact.
			last := cs.NumChunks() - 1
			if cs.Known(v, last) != v {
				t.Fatalf("%+v: Known at final chunk %d != exact %d", cs, cs.Known(v, last), v)
			}
		}
	}
}

func TestChunkContributionSumsToValue(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, cs := range allSpecs() {
		for trial := 0; trial < 200; trial++ {
			v := randVal(rng, cs.TotalBits)
			var sum int64
			for b := 0; b < cs.NumChunks(); b++ {
				sum += cs.ChunkContribution(cs.Extract(v, b), b)
			}
			if sum != int64(v) {
				t.Fatalf("%+v: chunk contributions sum to %d, want %d", cs, sum, v)
			}
		}
	}
}

func TestPartialDotIncrementalConsistency(t *testing.T) {
	// PartialDot(q,k,b) == Σ_{b'<=b} ChunkDot(q,k,b'), and the final partial
	// dot equals the exact dot.
	rng := rand.New(rand.NewSource(5))
	for _, cs := range allSpecs() {
		for trial := 0; trial < 50; trial++ {
			n := 8 + rng.Intn(56)
			q := make(Vector, n)
			k := make(Vector, n)
			for i := range q {
				q[i] = randVal(rng, cs.TotalBits)
				k[i] = randVal(rng, cs.TotalBits)
			}
			var acc int64
			for b := 0; b < cs.NumChunks(); b++ {
				acc += cs.ChunkDot(q, k, b)
				if got := cs.PartialDot(q, k, b); got != acc {
					t.Fatalf("%+v b=%d: PartialDot=%d, incremental=%d", cs, b, got, acc)
				}
			}
			if exact := Dot(q, k); acc != exact {
				t.Fatalf("%+v: final partial dot %d != exact %d", cs, acc, exact)
			}
		}
	}
}

func TestChunkBytes(t *testing.T) {
	cs := DefaultChunkSpec
	if got := cs.ChunkBytes(64, 0); got != 32 {
		t.Errorf("chunk bytes for dim=64, 4-bit chunk: got %d, want 32", got)
	}
	if got := cs.VectorBytes(64); got != 96 {
		t.Errorf("vector bytes for dim=64 at 12 bits: got %d, want 96", got)
	}
	// Non-dividing spec: final chunk narrower.
	odd := ChunkSpec{TotalBits: 12, ChunkBits: 5}
	if w := odd.ChunkWidth(2); w != 2 {
		t.Errorf("final chunk width of 12/5 split: got %d, want 2", w)
	}
}

func TestExtractAllLayout(t *testing.T) {
	cs := DefaultChunkSpec
	k := Vector{0x7FF & 0x7FF, -1, 0, 5}
	rows := cs.ExtractAll(k)
	if len(rows) != 3 {
		t.Fatalf("ExtractAll rows = %d, want 3", len(rows))
	}
	for i, v := range k {
		got := cs.Assemble([]uint16{rows[0][i], rows[1][i], rows[2][i]})
		if got != v {
			t.Errorf("elem %d reassembles to %d, want %d", i, got, v)
		}
	}
}

func TestChunkRoundTripProperty(t *testing.T) {
	cs := DefaultChunkSpec
	f := func(raw int16) bool {
		v := raw % 2048 // stay in 12-bit range
		chunks := make([]uint16, cs.NumChunks())
		for b := range chunks {
			chunks[b] = cs.Extract(v, b)
		}
		return cs.Assemble(chunks) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkMaskIdentityExhaustive checks the identity the estimator's inner
// loop rests on, for every valid spec, every representable value and every
// chunk: reading chunk b of a stored value with one AND gives exactly the
// contribution the bit-by-bit Extract/ChunkContribution path computes. The
// masks of a spec partition the 16-bit word, and Known is their prefix sum.
func TestChunkMaskIdentityExhaustive(t *testing.T) {
	for total := uint(2); total <= 15; total++ {
		for width := uint(1); width <= total; width++ {
			cs := ChunkSpec{TotalBits: total, ChunkBits: width}
			if err := cs.Validate(); err != nil {
				t.Fatal(err)
			}
			var union, overlap uint16
			for b := 0; b < cs.NumChunks(); b++ {
				m := uint16(cs.ChunkMask(b))
				overlap |= union & m
				union |= m
			}
			if union != 0xffff || overlap != 0 {
				t.Fatalf("%+v: masks do not partition the word (union %#x, overlap %#x)", cs, union, overlap)
			}
			lim := int32(1) << (total - 1)
			for x := -lim; x < lim; x++ {
				v := int16(x)
				var known int64
				for b := 0; b < cs.NumChunks(); b++ {
					want := cs.ChunkContribution(cs.Extract(v, b), b)
					if got := int64(v & cs.ChunkMask(b)); got != want {
						t.Fatalf("%+v v=%d chunk %d: v&mask = %d, contribution %d", cs, v, b, got, want)
					}
					known += want
					if got := int64(cs.Known(v, b)); got != known {
						t.Fatalf("%+v v=%d: Known(%d) = %d, want %d", cs, v, b, got, known)
					}
				}
			}
		}
	}
}

// TestMaskedDotMatchesExtraction compares the unrolled masked dot with the
// per-element extraction it replaced, at lengths that exercise the tail.
func TestMaskedDotMatchesExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, cs := range allSpecs() {
		for _, dim := range []int{1, 3, 4, 7, 32, 33} {
			q, k := make(Vector, dim), make(Vector, dim)
			for j := range q {
				q[j], k[j] = randVal(rng, cs.TotalBits), randVal(rng, cs.TotalBits)
			}
			for b := 0; b < cs.NumChunks(); b++ {
				var want int64
				for j := range q {
					want += int64(q[j]) * cs.ChunkContribution(cs.Extract(k[j], b), b)
				}
				if got := cs.ChunkDot(q, k, b); got != want {
					t.Fatalf("%+v dim %d chunk %d: ChunkDot %d, want %d", cs, dim, b, got, want)
				}
			}
			var full int64
			for j := range q {
				full += int64(q[j]) * int64(k[j])
			}
			if got := Dot(q, k); got != full {
				t.Fatalf("%+v dim %d: Dot %d, want %d", cs, dim, got, full)
			}
		}
	}
}

// TestMaskedDot4MatchesMaskedDot pins the four-key pass to the single-key
// primitive: every chunk mask (and the full-dot mask -1) of the specs the
// estimator's oracle sweep uses, elements drawn from the extremes
// -2^(bits-1) and 2^(bits-1)-1 as well as uniformly, every length 0..67 (all
// four len%4 remainders, empty included), keys longer than the query, and
// one row passed in several slots.
func TestMaskedDot4MatchesMaskedDot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	specs := []ChunkSpec{DefaultChunkSpec, {TotalBits: 8, ChunkBits: 3}, {TotalBits: 15, ChunkBits: 5}}
	for _, cs := range specs {
		lim := int16(1) << (cs.TotalBits - 1)
		val := func() int16 {
			switch rng.Intn(4) {
			case 0:
				return -lim
			case 1:
				return lim - 1
			}
			return randVal(rng, cs.TotalBits)
		}
		masks := []int16{-1}
		for b := 0; b < cs.NumChunks(); b++ {
			masks = append(masks, cs.ChunkMask(b))
		}
		for dim := 0; dim <= 67; dim++ {
			q := make(Vector, dim)
			rows := make([]Vector, 4)
			for j := range q {
				q[j] = val()
			}
			for r := range rows {
				rows[r] = make(Vector, dim+r) // k may be longer than q
				for j := range rows[r] {
					rows[r][j] = val()
				}
			}
			for _, slots := range [][4]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 1, 2, 1}, {2, 2, 2, 2}} {
				k0, k1, k2, k3 := rows[slots[0]], rows[slots[1]], rows[slots[2]], rows[slots[3]]
				for _, m := range masks {
					got := [4]int64{}
					got[0], got[1], got[2], got[3] = MaskedDot4(q, k0, k1, k2, k3, m)
					for s, k := range []Vector{k0, k1, k2, k3} {
						if want := MaskedDot(q, k, m); got[s] != want {
							t.Fatalf("%+v dim %d slots %v mask %#x: slot %d = %d, MaskedDot %d",
								cs, dim, slots, uint16(m), s, got[s], want)
						}
					}
				}
			}
		}
	}
}
