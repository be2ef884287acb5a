package serve

import (
	"errors"
	"fmt"
	"sync"

	"tokenpicker/internal/fixed"
	"tokenpicker/internal/model"
)

// ErrNoBlocks reports that the pool's MaxBlocks budget is exhausted. The
// scheduler reacts by evicting idle cached prefixes or preempting the
// least-progressed session; only when nothing can be reclaimed does the
// failing session finish with ReasonRejected. Already-leased blocks keep
// serving their sessions.
var ErrNoBlocks = errors.New("serve: kv pool out of blocks")

// block is one ref-counted unit of KV storage: blockRows rows of headDim
// floats. refs is guarded by the owning pool's mutex; a block with refs == 0
// sits on the free list. Blocks referenced by more than one holder — a
// session plus the prefix index, or several sessions sharing a prompt
// prefix — are read-only by convention: pagedCache.EnsureLen copies a shared
// block before the first write lands in it (copy-on-write).
type block struct {
	data []float32
	refs int
}

// Pool is a block-paged KV-cache allocator. Instead of eagerly allocating
// MaxSeq x HeadDim per (layer, head) per session — the seed decoder's
// behaviour — sessions lease fixed-size blocks of BlockRows rows as their
// context actually grows, and return them on completion so the next session
// reuses the same memory. Thousands of short sessions therefore cost peak
// working set, not sessions x full context window.
//
// Blocks are ref-counted: the prefix index retains the blocks of published
// prompt prefixes, and adopting sessions share them read-only, so N sessions
// with a common system prompt store its KV exactly once. A block returns to
// the free list only when its last reference drops.
//
// A Pool is goroutine-safe; one pool serves every worker of a Server.
type Pool struct {
	blockRows int
	headDim   int
	maxBlocks int // 0 = unbounded

	mu    sync.Mutex
	free  []*block
	stats PoolStats
}

// PoolStats is a snapshot of pool accounting.
type PoolStats struct {
	BlockRows int   // rows per block
	HeadDim   int   // floats per row
	Allocated int64 // blocks ever backed by fresh memory
	Leases    int64 // block leases handed out (Allocated + recycled)
	InUse     int64 // blocks currently referenced (each counted once)
	Peak      int64 // high-water mark of InUse
	Free      int64 // blocks parked on the free list right now
	Trimmed   int64 // free blocks dropped by Trim (memory handed back to GC)
	Shares    int64 // extra references handed out on live blocks (prefix sharing)
	Copies    int64 // copy-on-write duplications of shared blocks
}

// Recycled returns how many leases were served from returned blocks rather
// than fresh allocations.
func (s PoolStats) Recycled() int64 { return s.Leases - s.Allocated }

// AllocatedRows returns the total rows ever backed by memory — the number
// to compare against sessions x MaxSeq eager allocation.
func (s PoolStats) AllocatedRows() int64 { return s.Allocated * int64(s.BlockRows) }

func (s PoolStats) String() string {
	return fmt.Sprintf("blocks %dx%d floats: allocated %d, leased %d (%d recycled), in use %d, peak %d, free %d (%d trimmed), shared refs %d, cow copies %d",
		s.BlockRows, s.HeadDim, s.Allocated, s.Leases, s.Recycled(), s.InUse, s.Peak, s.Free, s.Trimmed, s.Shares, s.Copies)
}

// NewPool creates a pool of blockRows x headDim blocks. maxBlocks bounds
// the blocks that may be live at once (0 = unbounded).
func NewPool(blockRows, headDim, maxBlocks int) *Pool {
	if blockRows < 1 || headDim < 1 {
		panic(fmt.Sprintf("serve: bad pool geometry %dx%d", blockRows, headDim))
	}
	return &Pool{
		blockRows: blockRows,
		headDim:   headDim,
		maxBlocks: maxBlocks,
		stats:     PoolStats{BlockRows: blockRows, HeadDim: headDim},
	}
}

// Stats returns a snapshot of the pool accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// hasCapacity reports whether n fresh leases could plausibly succeed: the
// pool is unbounded or sits at least n blocks below its budget. The
// scheduler's resume gate uses it to keep preempted sessions parked while
// the pool is still saturated.
func (p *Pool) hasCapacity(n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.maxBlocks == 0 || p.stats.InUse+int64(n) <= int64(p.maxBlocks)
}

// Trim drops free blocks beyond keepFree, handing their memory back to the
// garbage collector, and returns how many were dropped. A one-off traffic
// burst grows the free list to its peak working set; Trim lets an operator
// (or a periodic caller) release that memory instead of pinning peak
// forever. Trimmed blocks are accounted in PoolStats.Trimmed.
func (p *Pool) Trim(keepFree int) int {
	if keepFree < 0 {
		keepFree = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free) - keepFree
	if n <= 0 {
		return 0
	}
	for i := keepFree; i < len(p.free); i++ {
		p.free[i] = nil
	}
	p.free = p.free[:keepFree]
	p.stats.Free -= int64(n)
	p.stats.Trimmed += int64(n)
	return n
}

// lease hands out one exclusively-owned block (refs == 1), recycling a
// returned one when available.
func (p *Pool) lease() (*block, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leaseLocked()
}

func (p *Pool) leaseLocked() (*block, error) {
	if p.maxBlocks > 0 && p.stats.InUse >= int64(p.maxBlocks) {
		return nil, fmt.Errorf("%w: %d in use (max %d)", ErrNoBlocks, p.stats.InUse, p.maxBlocks)
	}
	var b *block
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.stats.Free--
	} else {
		b = &block{data: make([]float32, p.blockRows*p.headDim)}
		p.stats.Allocated++
	}
	b.refs = 1
	p.stats.Leases++
	p.stats.InUse++
	if p.stats.InUse > p.stats.Peak {
		p.stats.Peak = p.stats.InUse
	}
	return b, nil
}

// retain adds a reference to a live block (prefix index publication, or a
// session adopting a shared prefix).
func (p *Pool) retain(b *block) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retainLocked(b)
}

func (p *Pool) retainLocked(b *block) {
	if b.refs < 1 {
		panic("serve: retain of a free block")
	}
	b.refs++
	p.stats.Shares++
}

// release drops one reference; the block returns to the free list when the
// last holder lets go. It reports whether the block became free.
func (p *Pool) release(b *block) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.releaseLocked(b)
}

func (p *Pool) releaseLocked(b *block) bool {
	b.refs--
	if b.refs > 0 {
		return false
	}
	if b.refs < 0 {
		panic("serve: release of a free block (refcount underflow)")
	}
	p.free = append(p.free, b)
	p.stats.InUse--
	p.stats.Free++
	return true
}

// releaseAll releases a batch of references under one lock acquisition.
func (p *Pool) releaseAll(blocks []*block) {
	if len(blocks) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range blocks {
		p.releaseLocked(b)
	}
}

// exclusive returns a privately-owned equivalent of b: b itself when this
// holder is the only reference, otherwise a copy-on-write duplicate (the
// caller's reference moves to the copy; other holders keep reading the
// original, which stays immutable).
func (p *Pool) exclusive(b *block) (*block, error) {
	p.mu.Lock()
	if b.refs == 1 {
		p.mu.Unlock()
		return b, nil
	}
	nb, err := p.leaseLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	p.stats.Copies++
	p.mu.Unlock()
	// Copy BEFORE dropping our reference: while we still hold it, every
	// other holder observes refs >= 2 and takes the copy path itself, so no
	// one can be granted b for writing while we read it. (nb is not yet
	// visible to anyone else.) Only then does our reference move away.
	copy(nb.data, b.data)
	p.release(b) // refs >= 2 here, so b stays live for its other holders
	return nb, nil
}

// Provider adapts the pool to the decoder's cache-provider hook, so
// model.NewDecoderWith(params, kernel, pool.Provider()) pages every KV cache
// of that decoder through the pool.
func (p *Pool) Provider() model.CacheProvider { return poolProvider{p} }

type poolProvider struct{ pool *Pool }

func (pp poolProvider) NewKVCache(maxSeq, headDim int) model.KVCache {
	if headDim != pp.pool.headDim {
		panic(fmt.Sprintf("serve: pool rows are %d floats, model head dim is %d",
			pp.pool.headDim, headDim))
	}
	return &pagedCache{pool: pp.pool, maxSeq: maxSeq}
}

// pagedCache implements model.KVCache over leased pool blocks. Row i lives
// in block i/BlockRows; blocks are leased on first touch and released by
// Truncate/Release. Not goroutine-safe, like the decoder that owns it.
//
// The leading sharedUpTo blocks may be shared read-only with other sessions
// (an adopted prompt prefix, or this session's own blocks after the prefix
// index published them). EnsureLen copy-on-writes a shared block before the
// decoder's next append lands in it, so divergence never corrupts the other
// readers; blocks past sharedUpTo are exclusively owned and skip the check,
// keeping the steady-state append path lock-free.
//
// The quantized side-car rides with the cache, not the worker kernel, so a
// session keeps its incremental quantization memo as the scheduler hands it
// to different workers, and a recycled block can never leak stale quantized
// rows into another session (Truncate/Release invalidate the memo with the
// lease).
type pagedCache struct {
	pool       *Pool
	blocks     []*block
	rows       int // length: rows adopted or ensured since the last Truncate
	sharedUpTo int // leading blocks that may be shared (refs > 1)
	maxSeq     int
	qc         fixed.QuantCache
}

// QuantCache implements fixed.CacheQuantizer.
func (c *pagedCache) QuantCache() *fixed.QuantCache { return &c.qc }

func (c *pagedCache) Row(i int) []float32 {
	hd := c.pool.headDim
	off := (i % c.pool.blockRows) * hd
	return c.blocks[i/c.pool.blockRows].data[off : off+hd]
}

func (c *pagedCache) EnsureLen(n int) error {
	if n > c.maxSeq {
		return model.ErrContextFull
	}
	for n > len(c.blocks)*c.pool.blockRows {
		b, err := c.pool.lease()
		if err != nil {
			return err
		}
		c.blocks = append(c.blocks, b)
	}
	// Rows [c.rows, n) — and row n-1 in any case — are about to be written
	// (the KVCache contract): swap a private copy in for every possibly
	// shared block they touch before a write can land.
	if n > 0 {
		first, last := min(c.rows, n-1)/c.pool.blockRows, (n-1)/c.pool.blockRows
		for idx := first; idx <= last && idx < c.sharedUpTo; idx++ {
			nb, err := c.pool.exclusive(c.blocks[idx])
			if err != nil {
				return err
			}
			c.blocks[idx] = nb
		}
		if first < c.sharedUpTo && last >= c.sharedUpTo-1 {
			// The tail of the shared range went private; appends walk
			// forward, so nothing shared is ever written again.
			c.sharedUpTo = first
		}
	}
	c.rows = max(c.rows, n)
	return nil
}

// adopt seeds an empty cache with shared, read-only prefix blocks holding
// rows context rows, whose references the caller has already retained, and
// arms the quantized side-car with the prefix's shared snapshot (nil =
// quantize privately).
func (c *pagedCache) adopt(blocks []*block, rows int, sq *fixed.SharedQuant) {
	if len(c.blocks) != 0 {
		panic("serve: adopt into a non-empty cache")
	}
	c.blocks = append(c.blocks, blocks...)
	c.rows = rows
	c.sharedUpTo = len(blocks)
	if sq != nil {
		c.qc.AdoptShared(sq)
	} else {
		c.qc.Invalidate()
	}
}

// markShared widens the possibly-shared leading range to nblocks — called
// after the prefix index publishes this cache's blocks, so the session's own
// later appends copy-on-write out of the published storage.
func (c *pagedCache) markShared(nblocks int) {
	if nblocks > len(c.blocks) {
		nblocks = len(c.blocks)
	}
	if nblocks > c.sharedUpTo {
		c.sharedUpTo = nblocks
	}
}

func (c *pagedCache) Truncate(n int) {
	if n <= 0 {
		c.pool.releaseAll(c.blocks)
		c.blocks = c.blocks[:0]
		c.rows = 0
		c.sharedUpTo = 0
		c.qc.Invalidate()
		return
	}
	// Partial rollback: whole blocks past the kept rows go back to the pool;
	// the block holding row n-1 stays, its tail rows simply stale (validity is
	// bounded by the decoder's consumed count, and the next append lands on
	// the same storage — after a CoW in EnsureLen if the block is shared, so a
	// mid-block truncate of an adopted prefix never corrupts other readers).
	keep := (n + c.pool.blockRows - 1) / c.pool.blockRows
	if keep < len(c.blocks) {
		c.pool.releaseAll(c.blocks[keep:])
		for i := keep; i < len(c.blocks); i++ {
			c.blocks[i] = nil
		}
		c.blocks = c.blocks[:keep]
	}
	c.rows = min(c.rows, n)
	if c.sharedUpTo > len(c.blocks) {
		c.sharedUpTo = len(c.blocks)
	}
	c.qc.Truncate(n)
}

func (c *pagedCache) Release() {
	c.pool.releaseAll(c.blocks)
	c.blocks = nil
	c.rows = 0
	c.sharedUpTo = 0
	c.qc.Release()
}
