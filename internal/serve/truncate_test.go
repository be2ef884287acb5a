package serve

import (
	"testing"

	"tokenpicker/internal/fixed"
	"tokenpicker/internal/tensor"
)

// fillRow stamps a recognizable, offset-keyed pattern into cache row i so a
// later check can tell original rows, rewritten rows, and garbage apart.
func fillRow(c *pagedCache, i, key int) {
	row := c.Row(i)
	for j := range row {
		row[j] = float32(key*1000 + i*64 + j)
	}
}

func checkRow(t *testing.T, c *pagedCache, i, key int, what string) {
	t.Helper()
	row := c.Row(i)
	for j := range row {
		if want := float32(key*1000 + i*64 + j); row[j] != want {
			t.Fatalf("%s: row %d col %d = %g, want %g", what, i, j, row[j], want)
		}
	}
}

// TestPagedCacheTruncateReleasesBlocks pins the paged provider's rollback
// arithmetic: a block-boundary cut returns exactly the tail blocks to the
// pool, a mid-block cut keeps the straddled block (its stale tail rows are
// dead until the next append overwrites them), and the cache keeps working —
// re-extend, full truncate, reuse — without leaking a lease.
func TestPagedCacheTruncateReleasesBlocks(t *testing.T) {
	const (
		blockRows = 4
		headDim   = 8
	)
	pool := NewPool(blockRows, headDim, 0)
	c := pool.Provider().NewKVCache(64, headDim).(*pagedCache)

	for n := 1; n <= 19; n++ {
		if err := c.EnsureLen(n); err != nil {
			t.Fatalf("ensure %d: %v", n, err)
		}
		fillRow(c, n-1, 0)
	}
	if got := pool.Stats().InUse; got != 5 {
		t.Fatalf("19 rows lease %d blocks, want 5", got)
	}

	// Block boundary: rows 16.. go, the four leading blocks stay untouched.
	c.Truncate(16)
	if got := pool.Stats().InUse; got != 4 {
		t.Fatalf("truncate(16) left %d blocks in use, want 4", got)
	}
	for i := 0; i < 16; i++ {
		checkRow(t, c, i, 0, "after boundary truncate")
	}

	// Mid-block: row 5 keeps block 1 alive; rows 6,7 are stale but harmless.
	c.Truncate(6)
	if got := pool.Stats().InUse; got != 2 {
		t.Fatalf("truncate(6) left %d blocks in use, want 2", got)
	}
	for i := 0; i < 6; i++ {
		checkRow(t, c, i, 0, "after mid-block truncate")
	}

	// Re-extend over the stale tail and into fresh blocks: the corrected
	// continuation lands on the same storage, kept rows survive.
	for n := 7; n <= 12; n++ {
		if err := c.EnsureLen(n); err != nil {
			t.Fatalf("re-extend %d: %v", n, err)
		}
		fillRow(c, n-1, 7)
	}
	for i := 0; i < 6; i++ {
		checkRow(t, c, i, 0, "after re-extend")
	}
	for i := 6; i < 12; i++ {
		checkRow(t, c, i, 7, "rewritten tail")
	}

	// Full truncate releases everything and the cache stays usable.
	c.Truncate(0)
	if got := pool.Stats().InUse; got != 0 {
		t.Fatalf("truncate(0) left %d blocks in use", got)
	}
	if err := c.EnsureLen(3); err != nil {
		t.Fatalf("reuse after truncate(0): %v", err)
	}
	fillRow(c, 2, 9)
	checkRow(t, c, 2, 9, "reuse after full truncate")
	c.Release()
	if got := pool.Stats().InUse; got != 0 {
		t.Fatalf("release leaked %d blocks", got)
	}
}

// TestPagedCacheTruncateSharedBlocksCoW pins rollback against prefix sharing:
// a reader that adopted the owner's blocks can truncate into the shared range
// (dropping only its own references) and then append a divergent
// continuation — EnsureLen must copy-on-write the straddled shared block
// before the write lands — whether the rows are ensured one at a time or as
// one chunk that starts in the shared block and ends in the next — so the
// owner's rows are never corrupted, and the owner releasing its side never
// pulls storage out from under the reader.
func TestPagedCacheTruncateSharedBlocksCoW(t *testing.T) {
	for _, chunk := range []int{1, 4} {
		testPagedCacheTruncateSharedBlocksCoW(t, chunk)
	}
}

func testPagedCacheTruncateSharedBlocksCoW(t *testing.T, chunk int) {
	const (
		blockRows = 4
		headDim   = 8
	)
	pool := NewPool(blockRows, headDim, 0)
	prov := pool.Provider()

	owner := prov.NewKVCache(64, headDim).(*pagedCache)
	for n := 1; n <= 12; n++ {
		if err := owner.EnsureLen(n); err != nil {
			t.Fatalf("owner ensure %d: %v", n, err)
		}
		fillRow(owner, n-1, 0)
	}

	// Publish the owner's three blocks as a shared prefix.
	shared := append([]*block(nil), owner.blocks...)
	for _, b := range shared {
		pool.retain(b)
	}
	reader := prov.NewKVCache(64, headDim).(*pagedCache)
	reader.adopt(shared, 12, nil)
	owner.markShared(len(shared))

	// Reader rolls back into the middle of the shared range: block 2 loses
	// only the reader's reference; the owner keeps reading it.
	reader.Truncate(6)
	if got := pool.Stats().InUse; got != 3 {
		t.Fatalf("shared truncate left %d blocks in use, want 3", got)
	}
	for i := 0; i < 12; i++ {
		checkRow(t, owner, i, 0, "owner after reader truncate")
	}

	// Reader appends a divergent continuation through the shared block 1:
	// copy-on-write must fire before the first write.
	for n := 6 + chunk; n <= 10; n += chunk {
		if err := reader.EnsureLen(n); err != nil {
			t.Fatalf("reader re-extend %d: %v", n, err)
		}
		for r := n - chunk; r < n; r++ {
			fillRow(reader, r, 5)
		}
	}
	if got := pool.Stats().Copies; got == 0 {
		t.Fatal("divergent append into a shared block did not copy-on-write")
	}
	for i := 0; i < 12; i++ {
		checkRow(t, owner, i, 0, "owner after reader divergence")
	}
	for i := 0; i < 6; i++ {
		checkRow(t, reader, i, 0, "reader shared prefix")
	}
	for i := 6; i < 10; i++ {
		checkRow(t, reader, i, 5, "reader divergent tail")
	}

	// Owner tears down first: the still-shared block 0 must stay live for
	// the reader.
	owner.Truncate(0)
	for i := 0; i < 6; i++ {
		checkRow(t, reader, i, 0, "reader after owner release")
	}
	for i := 6; i < 10; i++ {
		checkRow(t, reader, i, 5, "reader tail after owner release")
	}
	reader.Release()
	if got := pool.Stats().InUse; got != 0 {
		t.Fatalf("teardown leaked %d blocks", got)
	}
}

// TestPagedCacheTruncateQuantSideCar drives the quantized side-car through a
// rollback on paged storage: truncate plus a corrected continuation must
// leave the memo bit-identical to a from-scratch quantization of the current
// rows — cheaply (no extra scale epoch) when the kept rows still hold the
// running max, and via a full rebuild when the max was rolled away.
func TestPagedCacheTruncateQuantSideCar(t *testing.T) {
	const (
		blockRows = 4
		headDim   = 8
		bits      = 12
	)
	pool := NewPool(blockRows, headDim, 0)
	c := pool.Provider().NewKVCache(64, headDim).(*pagedCache)

	put := func(i, key int) {
		row := c.Row(i)
		for j := range row {
			row[j] = float32((i*7+j*3+key)%13) / 16
		}
	}
	scratch := func(n int) ([][]int16, float64) {
		var maxMag float32
		for i := 0; i < n; i++ {
			if v := tensor.MaxAbs(c.Row(i)); v > maxMag {
				maxMag = v
			}
		}
		scale := fixed.ScaleFor(float64(maxMag), bits)
		rows := make([][]int16, n)
		for i := range rows {
			rows[i] = make([]int16, headDim)
			fixed.QuantizeRowInto(rows[i], c.Row(i), scale, bits)
		}
		return rows, scale
	}
	check := func(got []fixed.Vector, gotScale float64, n int, what string) {
		t.Helper()
		want, wantScale := scratch(n)
		if gotScale != wantScale {
			t.Fatalf("%s: scale %g != scratch %g", what, gotScale, wantScale)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < headDim; j++ {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s: row %d col %d: %d != scratch %d", what, i, j, got[i][j], want[i][j])
				}
			}
		}
	}

	qc := c.QuantCache()
	for n := 1; n <= 12; n++ {
		if err := c.EnsureLen(n); err != nil {
			t.Fatalf("ensure %d: %v", n, err)
		}
		put(n-1, 0)
		if n == 3 {
			c.Row(2)[0] = 3 // the running max, kept by the first rollback
		}
		qc.Sync(c, n, headDim, bits)
	}
	epochs := qc.Epochs()

	// Rejection below the max: side-car rolls back with the storage and the
	// corrected continuation extends it without a rebuild.
	c.Truncate(7)
	for n := 8; n <= 14; n++ {
		if err := c.EnsureLen(n); err != nil {
			t.Fatalf("re-extend %d: %v", n, err)
		}
		put(n-1, 4)
	}
	got, scale := qc.Sync(c, 14, headDim, bits)
	check(got, scale, 14, "cheap rollback")
	if qc.Epochs() != epochs {
		t.Fatalf("rollback below the max re-quantized: %d epochs, was %d", qc.Epochs(), epochs)
	}

	// Rejection past the max row: the memo must rebuild, still bit-correct.
	c.Truncate(2)
	for n := 3; n <= 9; n++ {
		if err := c.EnsureLen(n); err != nil {
			t.Fatalf("second re-extend %d: %v", n, err)
		}
		put(n-1, 8)
	}
	got, scale = qc.Sync(c, 9, headDim, bits)
	check(got, scale, 9, "rebuild rollback")
	c.Release()
}
