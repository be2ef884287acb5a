package serve

import (
	"cmp"
	"slices"
	"sync"

	"tokenpicker/internal/fixed"
	"tokenpicker/internal/model"
)

// prefixIndex caches the KV blocks of published prompt prefixes so sessions
// whose prompts share a long common prefix — the chatbot/system-prompt
// regime — skip both the prefill compute and the re-quantization for the
// shared rows. Prompts are indexed at BlockRows granularity: chunk c of a
// prompt is tokens [c*BlockRows, (c+1)*BlockRows), and each cached chunk is
// one entry keyed by the chain hash of every chunk up to and including it,
// holding that chunk's K and V blocks for every (layer, head) cache. The
// deepest entry of a published prompt may additionally carry the partial
// tail block (the rows past the last full chunk), which adopters share until
// their first divergent append copies it out (copy-on-write).
//
// Entries retain their blocks in the pool; adoption retains them again for
// the adopting session. Blocks therefore stay cached after the publishing
// session finishes. Two limits shrink the index, whichever binds first: its
// own budget of prefixBudgetBytes, enforced least-recently-used-first
// whenever a publish or an adoption grows it (trim), and the pool's MaxBlocks
// budget, under which the scheduler evicts one entry at a time (evictOne).
type prefixIndex struct {
	pool       *Pool
	blockRows  int
	layers     int
	heads      int
	blockBytes int
	budget     int // bytes the entries may keep alive

	mu      sync.Mutex
	entries map[uint64]*prefixEntry
	held    int            // bytes the entries keep alive right now
	lru     []*prefixEntry // victims scratch
	clock   int64
	stats   PrefixStats
}

// prefixBudgetBytes bounds the memory the prefix index keeps alive: the KV
// blocks its entries retain (whole blocks, float32) plus the quantized
// snapshots attached to entries that sessions have adopted. Without it an
// unbounded pool (MaxBlocks 0) retains every prompt ever served, so resident
// memory grows with requests served, not with load.
const prefixBudgetBytes = 64 << 20

// PrefixStats is a snapshot of prefix-index accounting.
type PrefixStats struct {
	Entries    int   // cached chunk entries right now
	Lookups    int64 // admission-time prefix probes
	Hits       int64 // probes that adopted at least one row
	RowsReused int64 // KV context rows adopted instead of prefilled
	TailRows   int64 // rows of RowsReused served from partial tail blocks
	Published  int64 // chunk entries ever inserted
	Evicted    int64 // entries dropped (index budget, pool pressure or Close)
}

// HitRate returns Hits / Lookups (0 when nothing was probed).
func (s PrefixStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// prefixEntry is one cached prompt chunk. k and v hold the chunk's block per
// (layer*heads + head) cache; sqK/sqV are the build-once quantized snapshots
// covering rows [0, depth*blockRows) — attached to the entry because their
// scale depends on exactly that many rows.
type prefixEntry struct {
	key    uint64
	depth  int          // full chunks covered, including this one
	parent *prefixEntry // depth-1 chunk this entry extends (nil at depth 1)
	tokens []int        // this chunk's blockRows tokens
	k, v   []*block
	sqK    []*fixed.SharedQuant
	sqV    []*fixed.SharedQuant

	// Optional partial-tail extension: the publisher's rows past the last
	// full chunk, shared read-only until an adopter (or the publisher
	// itself) diverges and copy-on-writes the block.
	tailK, tailV []*block
	tailTokens   []int

	// snapBytes is what sqK/sqV cost once built, counted against the budget
	// from the first adoption that ends at this entry (a snapshot spans the
	// whole prefix, depth*blockRows rows, so it outweighs the entry's own
	// blocks from depth 2 on); 0 until then.
	snapBytes int

	lastUse int64
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// chunkHash extends the chain hash h with one chunk of tokens (FNV-1a over
// the little-endian token bytes). Collisions are survivable: every chain
// step compares the entry's stored tokens before trusting it.
func chunkHash(h uint64, tokens []int) uint64 {
	for _, t := range tokens {
		v := uint64(t)
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// PrefixKey chain-hashes the leading full blockRows-sized chunks of prompt —
// the same FNV-1a chain the prefix index keys its entries by — and reports
// how many full chunks the key covers, capped at maxChunks when positive.
// Prompts that share their leading chunks share the key, so a fleet router
// can rendezvous-hash it to land them on the replica whose prefix index
// already caches those KV blocks. chunks is 0 (and the key is the bare FNV
// offset basis) when the prompt has no full chunk; blockRows <= 0 falls back
// to the engine default.
//
//topick:noalloc
func PrefixKey(prompt []int, blockRows, maxChunks int) (key uint64, chunks int) {
	if blockRows <= 0 {
		blockRows = defaultBlockRows
	}
	n := len(prompt) / blockRows
	if maxChunks > 0 && n > maxChunks {
		n = maxChunks
	}
	h := fnvOffset
	for c := 0; c < n; c++ {
		h = chunkHash(h, prompt[c*blockRows:(c+1)*blockRows])
	}
	return h, n
}

func equalTokens(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

func newPrefixIndex(pool *Pool, blockRows, layers, heads int) *prefixIndex {
	return &prefixIndex{
		pool:       pool,
		blockRows:  blockRows,
		layers:     layers,
		heads:      heads,
		blockBytes: 4 * pool.blockRows * pool.headDim,
		budget:     prefixBudgetBytes,
		entries:    make(map[uint64]*prefixEntry),
	}
}

// pagedCaches extracts the decoder's per-(layer, head) K and V caches,
// flattened layer-major; ok is false when the decoder is not pool-backed.
func (px *prefixIndex) pagedCaches(dec *model.Decoder) (k, v []*pagedCache, ok bool) {
	n := px.layers * px.heads
	k = make([]*pagedCache, 0, n)
	v = make([]*pagedCache, 0, n)
	for l := 0; l < px.layers; l++ {
		for h := 0; h < px.heads; h++ {
			ks, vs := dec.Cache(l, h)
			kc, ok1 := ks.(*pagedCache)
			vc, ok2 := vs.(*pagedCache)
			if !ok1 || !ok2 {
				return nil, nil, false
			}
			k = append(k, kc)
			v = append(v, vc)
		}
	}
	return k, v, true
}

// Stats snapshots the index accounting.
func (px *prefixIndex) Stats() PrefixStats {
	px.mu.Lock()
	defer px.mu.Unlock()
	s := px.stats
	s.Entries = len(px.entries)
	return s
}

// walk follows the chain for prompt under px.mu and returns the matched
// entries in chunk order. Every step verifies the entry's own tokens AND
// its parent pointer against the previously matched entry, so chain
// identity is structural: a 64-bit chain-state collision between two
// different prefixes (FNV is not cryptographic; clients control tokens)
// cannot splice another prefix's KV blocks into this chain.
func (px *prefixIndex) walk(prompt []int, maxChunks int) []*prefixEntry {
	var chain []*prefixEntry
	var prev *prefixEntry
	h := fnvOffset
	B := px.blockRows
	for c := 0; c < maxChunks; c++ {
		chunk := prompt[c*B : (c+1)*B]
		h = chunkHash(h, chunk)
		e := px.entries[h]
		if e == nil || e.depth != c+1 || e.parent != prev || !equalTokens(e.tokens, chunk) {
			break
		}
		chain = append(chain, e)
		prev = e
	}
	return chain
}

// cachedBlocks reports how many leading whole blocks of prompt adopt would
// install from the index right now, without a new lease (the partial tail is
// left out: its block is copied at the adopter's first append).
func (px *prefixIndex) cachedBlocks(prompt []int) int {
	px.mu.Lock()
	defer px.mu.Unlock()
	return len(px.walk(prompt, (len(prompt)-1)/px.blockRows))
}

// adopt finds the longest cached prefix of prompt, installs its blocks (and
// quantized snapshots) read-only into the decoder's caches, and returns how
// many context rows were adopted. At least one prompt token is always left
// for prefill — the session needs the last prompt token's logits to sample
// from — so adoption covers at most len(prompt)-1 rows. The decoder must be
// fresh; the caller seeds it with Decoder.AdoptPrefix(rows).
//
// firstProbe marks a session's first probe and countHit its first
// successful adoption: retries after a miss (the index may fill between
// admission and first dispatch) and re-adoptions after a preemption do not
// re-count, so Lookups and Hits stay per-session and HitRate() <= 1.
// RowsReused counts every adoption — each one is prefill work not redone.
func (px *prefixIndex) adopt(dec *model.Decoder, prompt []int, firstProbe, countHit bool) (rows int) {
	kc, vc, ok := px.pagedCaches(dec)
	if !ok {
		return 0
	}
	B := px.blockRows
	maxRows := len(prompt) - 1

	px.mu.Lock()
	defer px.mu.Unlock()
	if firstProbe {
		px.stats.Lookups++
	}
	chain := px.walk(prompt, maxRows/B)
	if len(chain) == 0 {
		return 0
	}
	d := len(chain)
	rows = d * B
	deep := chain[d-1]

	// Extend with the deepest entry's partial tail: share the block for as
	// many leading rows as the prompts agree on (divergence past that point
	// is handled by copy-on-write at the adopter's first append).
	tail := 0
	if deep.tailTokens != nil {
		for tail < len(deep.tailTokens) && rows+tail < maxRows &&
			prompt[rows+tail] == deep.tailTokens[tail] {
			tail++
		}
	}

	px.clock++
	for _, e := range chain {
		e.lastUse = px.clock
	}

	px.pool.mu.Lock()
	for i := range kc {
		for _, e := range chain {
			px.pool.retainLocked(e.k[i])
			px.pool.retainLocked(e.v[i])
		}
		if tail > 0 {
			px.pool.retainLocked(deep.tailK[i])
			px.pool.retainLocked(deep.tailV[i])
		}
	}
	px.pool.mu.Unlock()

	nb := d
	if tail > 0 {
		nb++
	}
	kb := make([]*block, 0, nb)
	vb := make([]*block, 0, nb)
	for i := range kc {
		kb, vb = kb[:0], vb[:0]
		for _, e := range chain {
			kb = append(kb, e.k[i])
			vb = append(vb, e.v[i])
		}
		if tail > 0 {
			kb = append(kb, deep.tailK[i])
			vb = append(vb, deep.tailV[i])
		}
		kc[i].adopt(kb, rows+tail, deep.sqK[i])
		vc[i].adopt(vb, rows+tail, deep.sqV[i])
	}
	rows += tail
	if countHit {
		px.stats.Hits++
	}
	px.stats.RowsReused += int64(rows)
	px.stats.TailRows += int64(tail)
	if deep.snapBytes == 0 {
		// The adopter's kernel builds these snapshots at its first step.
		deep.snapBytes = 2 * len(kc) * deep.sqK[0].Footprint(px.pool.headDim)
		px.held += deep.snapBytes
		px.trim()
	}
	return rows
}

// publish inserts the full chunks of a just-prefilled prompt (and its
// partial tail, attached to the deepest entry) into the index, retaining
// the session's blocks so they outlive it. Chunks already cached are left
// as-is — concurrent sessions publishing the same prompt converge on the
// first publisher's blocks. The publishing session's caches are marked
// shared so its own later appends copy-on-write out of the published tail.
// Publishing then trims the index back to its budget (see trim).
func (px *prefixIndex) publish(dec *model.Decoder, prompt []int) {
	kc, vc, ok := px.pagedCaches(dec)
	if !ok {
		return
	}
	B := px.blockRows
	d := len(prompt) / B
	if d == 0 {
		return
	}
	tailRows := len(prompt) - d*B
	caches := len(kc)

	px.mu.Lock()
	defer px.mu.Unlock()
	px.clock++
	h := fnvOffset
	var deep *prefixEntry
	depth := 0
	for c := 0; c < d; c++ {
		chunk := prompt[c*B : (c+1)*B]
		h = chunkHash(h, chunk)
		if e := px.entries[h]; e != nil {
			if e.depth != c+1 || e.parent != deep || !equalTokens(e.tokens, chunk) {
				break // hash collision or orphaned chain: leave the resident entry alone
			}
			e.lastUse = px.clock
			deep, depth = e, c+1
			continue
		}
		e := &prefixEntry{
			key:     h,
			depth:   c + 1,
			parent:  deep,
			tokens:  append([]int(nil), chunk...),
			k:       make([]*block, caches),
			v:       make([]*block, caches),
			sqK:     make([]*fixed.SharedQuant, caches),
			sqV:     make([]*fixed.SharedQuant, caches),
			lastUse: px.clock,
		}
		px.pool.mu.Lock()
		for i := range kc {
			e.k[i] = kc[i].blocks[c]
			e.v[i] = vc[i].blocks[c]
			px.pool.retainLocked(e.k[i])
			px.pool.retainLocked(e.v[i])
			e.sqK[i] = fixed.NewSharedQuant((c + 1) * B)
			e.sqV[i] = fixed.NewSharedQuant((c + 1) * B)
		}
		px.pool.mu.Unlock()
		px.entries[h] = e
		px.held += 2 * caches * px.blockBytes
		px.stats.Published++
		deep, depth = e, c+1
	}
	if deep != nil && depth == d && tailRows > 0 && deep.tailTokens == nil {
		deep.tailK = make([]*block, caches)
		deep.tailV = make([]*block, caches)
		deep.tailTokens = append([]int(nil), prompt[d*B:]...)
		px.pool.mu.Lock()
		for i := range kc {
			deep.tailK[i] = kc[i].blocks[d]
			deep.tailV[i] = vc[i].blocks[d]
			px.pool.retainLocked(deep.tailK[i])
			px.pool.retainLocked(deep.tailV[i])
		}
		px.pool.mu.Unlock()
		px.held += 2 * caches * px.blockBytes
		depth++ // the tail block is published too: mark it shared below
	}
	for i := range kc {
		kc[i].markShared(depth)
		vc[i].markShared(depth)
	}
	px.trim()
}

// victims returns, least-recently-used first, the entries whose eviction
// would free at least one pool block, preferring deeper entries on ties
// (parents are touched whenever their children are, so a chain leaves the
// index leaf first and what remains is still a chain). Entries touched at the
// current clock tick — the chain a publish or adopt just walked — are left
// out when skipCurrent is set. The caller holds px.mu and px.pool.mu; the
// slice is scratch, valid until the next call.
func (px *prefixIndex) victims(skipCurrent bool) []*prefixEntry {
	px.lru = px.lru[:0]
	for _, e := range px.entries {
		if skipCurrent && e.lastUse == px.clock {
			continue
		}
		if soleHolder(e.k) || soleHolder(e.tailK) {
			px.lru = append(px.lru, e)
		}
	}
	slices.SortFunc(px.lru, func(a, b *prefixEntry) int {
		if c := cmp.Compare(a.lastUse, b.lastUse); c != 0 {
			return c
		}
		return cmp.Compare(b.depth, a.depth)
	})
	return px.lru
}

// soleHolder reports whether the index holds the only reference to any of
// blocks (K and V blocks of a cache pair are retained and released together,
// so the K side answers for both).
func soleHolder(blocks []*block) bool {
	for _, b := range blocks {
		if b.refs == 1 {
			return true
		}
	}
	return false
}

// drop removes e from the index and releases its block references, returning
// how many pool blocks actually became free. The caller holds px.mu and
// px.pool.mu.
func (px *prefixIndex) drop(e *prefixEntry) int {
	delete(px.entries, e.key)
	px.stats.Evicted++
	px.held -= e.snapBytes
	freed := 0
	for _, blocks := range [...][]*block{e.k, e.v, e.tailK, e.tailV} {
		px.held -= len(blocks) * px.blockBytes
		for _, b := range blocks {
			if px.pool.releaseLocked(b) {
				freed++
			}
		}
	}
	return freed
}

// trim evicts least-recently-used freeable entries until the index holds no
// more than its budget, never touching the chain the calling publish or
// adopt just walked. All victims of one call come from a single scan under
// one pool lock (a 512-token prompt publishes 16 entries). Entries still
// referenced by a live session free nothing and are skipped, so the index
// may sit above its budget while their sessions run. The caller holds px.mu.
func (px *prefixIndex) trim() {
	if px.held <= px.budget {
		return
	}
	px.pool.mu.Lock()
	defer px.pool.mu.Unlock()
	for _, e := range px.victims(true) {
		if px.held <= px.budget {
			break
		}
		px.drop(e)
	}
}

// evictOne drops the least-recently-used entry whose eviction frees at least
// one pool block — the scheduler's first answer to MaxBlocks exhaustion. It
// reports whether any block was freed.
func (px *prefixIndex) evictOne() bool {
	px.mu.Lock()
	defer px.mu.Unlock()
	px.pool.mu.Lock()
	defer px.pool.mu.Unlock()
	v := px.victims(false)
	return len(v) > 0 && px.drop(v[0]) > 0
}

// evictAll drops every entry, releasing all index-held block references —
// Server.Close calls this after draining so the pool refcounts balance to
// zero.
func (px *prefixIndex) evictAll() {
	px.mu.Lock()
	defer px.mu.Unlock()
	px.pool.mu.Lock()
	defer px.pool.mu.Unlock()
	for _, e := range px.entries {
		px.drop(e)
	}
}
