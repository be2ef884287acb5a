package fixed

import (
	"testing"

	"tokenpicker/internal/tensor"
)

type sqRows struct{ data [][]float32 }

func (s *sqRows) Row(i int) []float32  { return s.data[i] }
func (s *sqRows) Span(i int) []float32 { return s.data[i] }

func sqSource(rows, dim, seed int) *sqRows {
	src := &sqRows{data: make([][]float32, rows)}
	for i := range src.data {
		src.data[i] = make([]float32, dim)
		for j := range src.data[i] {
			src.data[i][j] = float32((i*31+j*7+seed)%23-11) / 7
		}
	}
	return src
}

// TestSharedQuantAdoptionBitIdentical seeds one QuantCache from a shared
// snapshot and runs another from scratch over the same source: rows and
// scale must agree bit for bit, before and after extending past
// the snapshot, and the adopter must not re-quantize the shared rows
// (epochs stays at zero until a scale bump).
func TestSharedQuantAdoptionBitIdentical(t *testing.T) {
	const (
		rows = 24
		base = 16
		dim  = 8
		bits = 12
	)
	src := sqSource(rows, dim, 3)
	sq := NewSharedQuant(base)
	var adopted, scratch QuantCache
	adopted.AdoptShared(sq)

	for _, n := range []int{base + 1, base + 4, rows} {
		ra, sa := adopted.Sync(src, n, dim, bits)
		rs, ss := scratch.Sync(src, n, dim, bits)
		if sa != ss {
			t.Fatalf("n=%d: adopted scale %g != scratch %g", n, sa, ss)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < dim; j++ {
				if ra[i][j] != rs[i][j] {
					t.Fatalf("n=%d row %d col %d: adopted %d != scratch %d", n, i, j, ra[i][j], rs[i][j])
				}
			}
		}
	}
	if adopted.Epochs() != 0 {
		t.Fatalf("adopter ran %d full quantization passes; shared rows should have been reused", adopted.Epochs())
	}
	if adopted.Scale() != sq.scale {
		t.Fatalf("adopter scale %g departed from snapshot scale %g without an epoch bump", adopted.Scale(), sq.scale)
	}
}

// TestSharedQuantEpochBumpBitIdentical appends a row whose magnitude
// exceeds the snapshot's running max: the adopter must re-quantize
// everything privately at the new scale and still match scratch exactly.
func TestSharedQuantEpochBumpBitIdentical(t *testing.T) {
	const (
		base = 12
		dim  = 4
		bits = 12
	)
	src := sqSource(base+6, dim, 5)
	src.data[base+2][1] = 40 // new running max: forces a scale epoch bump

	sq := NewSharedQuant(base)
	var adopted, scratch QuantCache
	adopted.AdoptShared(sq)

	ra, sa := adopted.Sync(src, base+1, dim, bits)
	rs, ss := scratch.Sync(src, base+1, dim, bits)
	if sa != ss {
		t.Fatalf("pre-bump scale mismatch: %g != %g", sa, ss)
	}
	_ = ra
	_ = rs

	ra, sa = adopted.Sync(src, base+6, dim, bits)
	rs, ss = scratch.Sync(src, base+6, dim, bits)
	if sa != ss {
		t.Fatalf("post-bump scale mismatch: %g != %g", sa, ss)
	}
	for i := 0; i < base+6; i++ {
		for j := 0; j < dim; j++ {
			if ra[i][j] != rs[i][j] {
				t.Fatalf("post-bump row %d col %d: adopted %d != scratch %d", i, j, ra[i][j], rs[i][j])
			}
		}
	}
	if adopted.Epochs() == 0 {
		t.Fatal("no epoch bump despite a new running max")
	}
	// The snapshot itself must be untouched by the adopter's bump.
	if n, _, _, rows := sq.acquire(src, dim, bits); n != base || rows == nil {
		t.Fatalf("snapshot changed after adopter bump: n=%d", n)
	}
}

// TestSharedQuantGeometryMismatchBitIdentical adopts a snapshot built at a
// different bit width: the cache must quietly fall back to private
// quantization and still match scratch.
func TestSharedQuantGeometryMismatchBitIdentical(t *testing.T) {
	const (
		base = 8
		dim  = 4
	)
	src := sqSource(base+4, dim, 7)
	sq := NewSharedQuant(base)
	// Build the snapshot at 8 bits...
	if n, _, _, rows := sq.acquire(src, dim, 8); n != base || rows == nil {
		t.Fatal("snapshot build failed")
	}
	// ...then adopt it into a 12-bit sync.
	var adopted, scratch QuantCache
	adopted.AdoptShared(sq)
	ra, sa := adopted.Sync(src, base+4, dim, 12)
	rs, ss := scratch.Sync(src, base+4, dim, 12)
	if sa != ss {
		t.Fatalf("fallback scale mismatch: %g != %g", sa, ss)
	}
	for i := range rs {
		for j := range rs[i] {
			if ra[i][j] != rs[i][j] {
				t.Fatalf("fallback row %d col %d mismatch", i, j)
			}
		}
	}
}

var _ tensor.RowSource = (*sqRows)(nil)
