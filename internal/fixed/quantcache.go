package fixed

import (
	"sync"

	"tokenpicker/internal/tensor"
)

// CacheQuantizer is implemented by KV-cache row sources that carry their own
// quantized side-car. Attention kernels probe for it: when the source owns a
// QuantCache, quantization is incremental across Attend calls (rows appended
// since the last call are the only new work), and the memo survives worker
// hand-offs in the serving engine because it lives with the session's cache,
// not with the kernel. The owner must call Invalidate (or Release) whenever
// row contents change other than by appending — Truncate, block recycling,
// overwriting — so the side-car never serves stale rows.
type CacheQuantizer interface {
	QuantCache() *QuantCache
}

// QuantCache memoizes the shared-scale symmetric quantization of an
// append-only row source. KV-cache rows are immutable once written and the
// shared scale depends only on the running maximum magnitude, so each Sync
// quantizes only the rows appended since the previous call — O(added·dim) —
// and re-quantizes everything only on the rare scale-epoch bump when a new
// row raises the running max. The from-scratch path quantizes the same rows
// at the same scale with the same rounding, so incremental and scratch
// results are bit-identical (the invariant the equivalence tests assert).
//
// A QuantCache is not goroutine-safe; it inherits the synchronization of the
// cache or kernel that owns it.
type QuantCache struct {
	bits   uint
	dim    int
	n      int     // rows memoized
	maxMag float32 // running max |row element| over memoized rows
	scale  float64 // 0 = invalid, forces a full rebuild on next Sync
	epochs int64   // full (re)quantization passes, for tests/diagnostics
	back   []int16
	rows   []Vector

	// Adopted read-only prefix (prefix-sharing serving path): rows
	// [0, shared) of the memo are served straight from base's storage, so a
	// session that adopted a cached prompt prefix skips re-quantizing it. The
	// segment is dropped — re-pointed into private storage and re-quantized —
	// on the first scale-epoch bump, because the shared rows were quantized
	// at the base's scale.
	base   *SharedQuant
	shared int

	// Per-row magnitude bookkeeping for Truncate: rowMax[i] is the max
	// |element| of privately-quantized row i, recorded as Sync scans it.
	// Rows seeded from a shared snapshot have no individual record — only
	// their collective max (seedMax over rows [0, seedLen)) — so truncation
	// into the seeded prefix falls back to a full rebuild.
	rowMax  []float32
	seedLen int
	seedMax float32
}

// reset discards the memo (row headers included: some may point into shared
// base storage) but keeps the private backing and the adopted base.
func (qc *QuantCache) reset() {
	qc.n = 0
	qc.maxMag = 0
	qc.scale = 0
	qc.shared = 0
	qc.rows = qc.rows[:0]
	qc.rowMax = qc.rowMax[:0]
	qc.seedLen = 0
	qc.seedMax = 0
}

// Invalidate discards the memo — and any adopted shared prefix — but keeps
// the storage. The next Sync re-quantizes from scratch.
func (qc *QuantCache) Invalidate() {
	qc.reset()
	qc.base = nil
}

// AdoptShared discards the memo and arms the cache to seed its next
// from-empty Sync with the shared snapshot: the snapshot's rows become the
// leading segment of the memo at the snapshot's scale, read-only and
// zero-copy, so only rows beyond the snapshot are quantized. A snapshot
// whose geometry (dim/bits) does not match the Sync call is ignored and
// dropped. The serving engine calls this when a session adopts a cached
// prompt prefix.
func (qc *QuantCache) AdoptShared(base *SharedQuant) {
	qc.reset()
	qc.base = base
}

// Release discards the memo and its storage (cache teardown).
func (qc *QuantCache) Release() {
	qc.Invalidate()
	qc.back = nil
	qc.rows = nil
}

// Len returns the number of memoized rows.
func (qc *QuantCache) Len() int { return qc.n }

// Epochs returns how many full quantization passes have run — the initial
// fill plus one per scale bump or invalidation. Tests use it to prove the
// incremental path is actually incremental.
func (qc *QuantCache) Epochs() int64 { return qc.epochs }

// Scale returns the current shared scale (0 when the memo is empty/invalid).
func (qc *QuantCache) Scale() float64 { return qc.scale }

// Sync brings the memo up to rows [0, n) of src (dim columns each) at the
// given bit width and returns the quantized rows plus the shared scale. Rows
// [0, qc.Len()) must be unchanged in src since the previous Sync; a shrink of
// n, a change of dim or bits, or an explicit Invalidate trigger a full
// rebuild.
func (qc *QuantCache) Sync(src tensor.RowSource, n, dim int, bits uint) ([]Vector, float64) {
	if bits != qc.bits || dim != qc.dim {
		qc.bits, qc.dim = bits, dim
		qc.reset() // row headers carry the old dim stride
	}
	if n < qc.n {
		qc.reset()
	}
	if n == 0 {
		return qc.rows[:0], 1
	}
	if qc.n == 0 && qc.base != nil {
		// Seed the empty memo from the adopted shared snapshot: its rows
		// become the leading read-only segment, so the only quantization work
		// left is the rows beyond it.
		if bn, mm, sc, brows := qc.base.acquire(src, dim, bits); brows != nil && bn <= n {
			qc.shared = bn
			qc.n = bn
			qc.maxMag = mm
			qc.scale = sc
			qc.rows = append(qc.rows[:0], brows...)
			qc.seedLen = bn
			qc.seedMax = mm
		} else {
			qc.base = nil // geometry mismatch (or deeper than src): unusable
		}
	}
	// Private backing stays absolutely indexed — rows [0, shared) of it are
	// simply unused while the shared segment serves them — so an epoch bump
	// can land every row in its natural slot without re-packing.
	if cap(qc.back) < n*dim {
		qc.back = tensor.Grow(qc.back, n*dim)
		// Private row headers point into the old backing; re-point them.
		// Shared headers keep pointing into the snapshot.
		for i := qc.shared; i < len(qc.rows); i++ {
			qc.rows[i] = qc.back[i*dim : (i+1)*dim]
		}
	}
	qc.back = qc.back[:cap(qc.back)]
	for len(qc.rows) < n {
		i := len(qc.rows)
		qc.rows = append(qc.rows, qc.back[i*dim:(i+1)*dim])
	}

	qc.rowMax = tensor.Grow(qc.rowMax, n)

	start := qc.n
	newMax := qc.maxMag
	for i := start; i < n; i++ {
		v := tensor.MaxAbs(src.Row(i)[:dim])
		qc.rowMax[i] = v
		if v > newMax {
			newMax = v
		}
	}
	if newMax > qc.maxMag || qc.scale == 0 {
		// Scale epoch bump: the shared scale changes, so every memoized row
		// must be re-quantized. The running max grows monotonically, so this
		// happens O(log n)-ish times over a generation, not per step.
		qc.maxMag = newMax
		qc.scale = ScaleFor(float64(newMax), bits)
		qc.epochs++
		start = 0
		if qc.shared > 0 {
			// The shared rows were quantized at the snapshot's scale; move
			// them into private storage and let the loop below re-quantize.
			for i := 0; i < qc.shared; i++ {
				qc.rows[i] = qc.back[i*dim : (i+1)*dim]
			}
			qc.shared = 0
		}
	}
	for i := start; i < n; i++ {
		QuantizeRowInto(qc.rows[i], src.Row(i)[:dim], qc.scale, bits)
	}
	qc.n = n
	return qc.rows[:n], qc.scale
}

// Truncate discards memoized rows [n, Len()) so the memo matches a source
// rolled back to n rows (speculative-decoding rejection). The kept rows were
// quantized at the shared scale derived from the running max magnitude, so
// the memo stays valid only when the kept rows alone reproduce that scale.
// When the truncated rows held the max, or when the cut lands inside a
// seeded shared prefix (whose per-row maxima were never recorded), the memo
// is discarded instead and the next Sync rebuilds from scratch — correct,
// just not incremental. The cheap path consumes no scale epoch: re-appending
// rows whose magnitudes stay within the kept max extends the memo without a
// rebuild, exactly as if the rolled-back rows had never existed.
func (qc *QuantCache) Truncate(n int) {
	if n >= qc.n {
		return
	}
	if n <= 0 || n < qc.seedLen {
		qc.reset()
		return
	}
	kept := qc.seedMax
	for _, v := range qc.rowMax[qc.seedLen:n] {
		if v > kept {
			kept = v
		}
	}
	if kept != qc.maxMag {
		qc.reset()
		return
	}
	qc.n = n
	qc.rows = qc.rows[:n]
	qc.rowMax = qc.rowMax[:n]
}

// SyncChunked is Sync at cs.TotalBits. The chunk-contribution planes it used
// to maintain are gone — the estimator reads chunk b of a stored row as
// k & cs.ChunkMask(b) — so the planes result is always nil.
//
// Deprecated: call Sync. Kept only because the frozen benchmark harness
// still calls it; the next benchmark PR removes it (see ROADMAP item 3).
func (qc *QuantCache) SyncChunked(src tensor.RowSource, n, dim int, cs ChunkSpec) ([]Vector, [][]int32, float64) {
	rows, scale := qc.Sync(src, n, dim, cs.TotalBits)
	return rows, nil, scale
}

// SyncFor returns quantized rows for src: through src's own side-car when it
// carries one (incremental), otherwise from scratch into qc. The fallback
// must rebuild every call because an arbitrary RowSource gives no guarantee
// its rows are unchanged between calls.
func (qc *QuantCache) SyncFor(src tensor.RowSource, n, dim int, bits uint) ([]Vector, float64) {
	if cq, ok := src.(CacheQuantizer); ok {
		return cq.QuantCache().Sync(src, n, dim, bits)
	}
	qc.Invalidate()
	return qc.Sync(src, n, dim, bits)
}

// SharedQuant is a build-once, read-many quantization snapshot of an
// immutable row prefix — the quantized side-car counterpart of a shared
// prompt prefix in the serving engine's KV pool. The first adopter to need
// quantized rows builds the snapshot (from its own view of the shared float
// rows, which every adopter sees bit-identically); later adopters reuse the
// rows zero-copy. The snapshot's scale covers exactly its
// own rows, so seeding a QuantCache from it and extending incrementally is
// bit-identical to quantizing the whole context from scratch.
//
// A SharedQuant is goroutine-safe; adopters on different serving workers may
// race to build it.
type SharedQuant struct {
	mu     sync.Mutex
	n      int
	dim    int
	bits   uint
	built  bool
	maxMag float32
	scale  float64
	rows   []Vector
}

// NewSharedQuant declares a snapshot over rows [0, rows) of some immutable
// source; the quantization itself happens lazily on first acquire.
func NewSharedQuant(rows int) *SharedQuant { return &SharedQuant{n: rows} }

// Len returns the number of rows the snapshot covers.
func (s *SharedQuant) Len() int { return s.n }

// Footprint returns the bytes the snapshot retains once built over dim-wide
// rows: the int16 backing plus one row header per row. Whoever keeps
// snapshots alive (the serving engine's prefix index) budgets them with it.
func (s *SharedQuant) Footprint(dim int) int {
	const rowHeader = 24 // a Vector slice header
	return s.n * (2*dim + rowHeader)
}

// acquire builds the snapshot on first use — quantizing rows [0, s.n) of src
// at the shared scale of exactly those rows — and returns it. The first
// caller fixes the geometry; callers with a different dim or bit width get
// nil rows and must quantize privately.
//
//topick:alloc-ok snapshot is built once per shared prefix (s.built latch)
func (s *SharedQuant) acquire(src tensor.RowSource, dim int, bits uint) (n int, maxMag float32, scale float64, rows []Vector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.built {
		s.dim, s.bits = dim, bits
		var mm float32
		for i := 0; i < s.n; i++ {
			if v := tensor.MaxAbs(src.Row(i)[:dim]); v > mm {
				mm = v
			}
		}
		s.maxMag = mm
		s.scale = ScaleFor(float64(mm), bits)
		back := make([]int16, s.n*dim)
		s.rows = make([]Vector, s.n)
		for i := range s.rows {
			s.rows[i] = back[i*dim : (i+1)*dim]
			QuantizeRowInto(s.rows[i], src.Row(i)[:dim], s.scale, bits)
		}
		s.built = true
	}
	if s.dim != dim || s.bits != bits {
		return 0, 0, 0, nil
	}
	return s.n, s.maxMag, s.scale, s.rows
}
