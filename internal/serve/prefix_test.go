package serve

import (
	"context"
	"errors"
	"math"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/train"
)

// prefixTestKernels is the kernel matrix for the bit-exactness tests: every
// generation-phase kernel the repo ships, pruning and non-pruning alike.
func prefixTestKernels(cfg model.Config) map[string]func() model.Kernel {
	return map[string]func() model.Kernel{
		"exact":           func() model.Kernel { return nil },
		"quantized-exact": func() model.Kernel { return attention.NewQuantizedExact() },
		"token-picker":    func() model.Kernel { return attention.NewTokenPicker(1e-3) },
		"oracle":          func() model.Kernel { return attention.NewOracle(1e-3) },
		"spatten": func() model.Kernel {
			return attention.NewSpAtten(attention.SpAttenConfig{
				KeepRatio: 0.5, MinKeep: 4,
				Layers: cfg.Layers, Heads: cfg.Heads,
				Cascade: true, Bits: 12,
			})
		},
	}
}

func testTokens(n, seed, vocab int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i*31 + seed*17 + 7) % vocab
	}
	return out
}

// TestPrefixSharingLogitsBitExact publishes a prefilled prompt to the prefix
// index, adopts it into a second paged decoder, and checks every logit of
// the adopter — the remaining prefill and a long generation tail — against a
// dense decoder that never saw shared storage. Sharing must not move a
// single bit, for every kernel.
func TestPrefixSharingLogitsBitExact(t *testing.T) {
	cfg := model.TestConfig()
	params := model.NewParams(cfg, 31)
	const blockRows = 16
	prompt := testTokens(75, 1, cfg.VocabSize) // 4 full chunks + 11-row tail

	for name, mk := range prefixTestKernels(cfg) {
		t.Run(name, func(t *testing.T) {
			pool := NewPool(blockRows, cfg.HeadDim, 0)
			px := newPrefixIndex(pool, blockRows, cfg.Layers, cfg.Heads)

			pub := model.NewDecoderWith(params, mk(), pool.Provider())
			pub.MustPrompt(prompt)
			px.publish(pub, prompt)

			ad := model.NewDecoderWith(params, mk(), pool.Provider())
			rows := px.adopt(ad, prompt, true, true)
			// 4 chunks (64 rows) + 10 tail rows: the last prompt token stays
			// for prefill so the adopter has logits to sample from.
			if want := 74; rows != want {
				t.Fatalf("adopted %d rows, want %d", rows, want)
			}
			if err := ad.AdoptPrefix(rows); err != nil {
				t.Fatalf("AdoptPrefix: %v", err)
			}
			ref := model.NewDecoder(params, mk())
			la := ad.MustPrompt(prompt[rows:])
			lr := ref.MustPrompt(prompt)
			for step := 0; step < 48; step++ {
				for v := range la {
					if la[v] != lr[v] {
						t.Fatalf("step %d vocab %d: shared %g != dense %g", step, v, la[v], lr[v])
					}
				}
				tok := (step*5 + 3) % cfg.VocabSize
				la = ad.MustStep(tok)
				lr = ref.MustStep(tok)
			}

			ad.Release()
			pub.Release()
			px.evictAll()
			if st := pool.Stats(); st.InUse != 0 {
				t.Fatalf("refcounts did not balance: %+v", st)
			}
		})
	}
}

// TestExactKernelPagedBitIdenticalToDense is the paged half of the exact
// kernel's bit-identity statement (internal/model pins the dense half to the
// scalar oracle): ExactKernel reads keys and values one contiguous span at a
// time, and on a paged cache a span is the rest of one block, which may be an
// adopted shared block or a shared partial tail. With 6-row blocks no span
// holds a whole group of eight keys, so the paged scores take DotRows' Go
// loop where the dense cache's take its kernel. For every context length the
// output must equal the same call on a dense cache holding the same rows —
// first while the adopted tail is still shared, then after the adopter has
// copied it and prefilled on.
func TestExactKernelPagedBitIdenticalToDense(t *testing.T) {
	cfg := model.TestConfig()
	params := model.NewParams(cfg, 34)
	const blockRows = 6
	pool := NewPool(blockRows, cfg.HeadDim, 0)
	px := newPrefixIndex(pool, blockRows, cfg.Layers, cfg.Heads)
	prompt := testTokens(70, 4, cfg.VocabSize)

	pub := model.NewDecoderWith(params, nil, pool.Provider())
	pub.MustPrompt(prompt[:45]) // 7 full chunks + 3-row tail
	px.publish(pub, prompt[:45])
	ad := model.NewDecoderWith(params, nil, pool.Provider())
	rows := px.adopt(ad, prompt, true, true)
	if rows != 45 {
		t.Fatalf("adopted %d rows, want 45", rows)
	}
	if err := ad.AdoptPrefix(rows); err != nil {
		t.Fatal(err)
	}
	dense := model.NewDecoder(params, nil)
	dense.MustPrompt(prompt)

	var k model.ExactKernel
	q := make([]float32, cfg.HeadDim)
	got, want := make([]float32, cfg.HeadDim), make([]float32, cfg.HeadDim)
	check := func(maxN int) {
		t.Helper()
		for l := 0; l < cfg.Layers; l++ {
			for h := 0; h < cfg.Heads; h++ {
				pk, pv := ad.Cache(l, h)
				dk, dv := dense.Cache(l, h)
				for n := 1; n <= maxN; n++ {
					for j := range q {
						q[j] = float32((n*7+j*3+h)%11-5) / 4
					}
					model.AttendOne(&k, got, q, pk, pv, n, 0.25, cfg.AlibiSlope(h), l)
					model.AttendOne(&k, want, q, dk, dv, n, 0.25, cfg.AlibiSlope(h), l)
					for j := range want {
						if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
							t.Fatalf("layer %d head %d n=%d out[%d]: paged %g != dense %g", l, h, n, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
	check(rows) // every block shared, the tail included
	ad.MustPrompt(prompt[rows:])
	check(len(prompt)) // shared chunks, copied tail, private blocks

	ad.Release()
	pub.Release()
	px.evictAll()
	if st := pool.Stats(); st.InUse != 0 {
		t.Fatalf("refcounts did not balance: %+v", st)
	}
}

// TestCoWIsolationAfterDivergence adopts a prefix whose prompt diverges
// inside the publisher's tail block, prefills past the divergence point in
// one chunk that runs on into the next block, generates further, and
// verifies the publisher's rows survive untouched: the adopter must have
// copied the tail block before its first divergent append, wherever the
// chunk carrying that append ends.
func TestCoWIsolationAfterDivergence(t *testing.T) {
	cfg := model.TestConfig()
	params := model.NewParams(cfg, 32)
	const blockRows = 16
	pool := NewPool(blockRows, cfg.HeadDim, 0)
	px := newPrefixIndex(pool, blockRows, cfg.Layers, cfg.Heads)

	prompt := testTokens(75, 2, cfg.VocabSize)
	pub := model.NewDecoderWith(params, attention.NewQuantizedExact(), pool.Provider())
	pub.MustPrompt(prompt)
	px.publish(pub, prompt)

	// Snapshot the publisher's tail rows (the shared partial block).
	snap := make(map[[3]int][]float32)
	for l := 0; l < cfg.Layers; l++ {
		for h := 0; h < cfg.Heads; h++ {
			keys, vals := pub.Cache(l, h)
			for i := 64; i < 75; i++ {
				snap[[3]int{l, h, i}] = append([]float32(nil), keys.Row(i)...)
				snap[[3]int{l, h, i + 1000}] = append([]float32(nil), vals.Row(i)...)
			}
		}
	}

	// The adopter's prompt diverges at position 70, inside the tail block,
	// and continues 20 tokens past the publisher's, beyond that block's end.
	div := append(append([]int(nil), prompt...), testTokens(20, 3, cfg.VocabSize)...)
	for i := 70; i < len(div); i++ {
		div[i] = (div[i] + 13) % cfg.VocabSize
	}
	ad := model.NewDecoderWith(params, attention.NewQuantizedExact(), pool.Provider())
	rows := px.adopt(ad, div, true, true)
	if want := 70; rows != want { // 64 chunk rows + 6 matching tail rows
		t.Fatalf("adopted %d rows, want %d", rows, want)
	}
	if err := ad.AdoptPrefix(rows); err != nil {
		t.Fatal(err)
	}
	ad.MustPrompt(div[rows:])
	for step := 0; step < 20; step++ {
		ad.MustStep((step * 7) % cfg.VocabSize)
	}
	if st := pool.Stats(); st.Copies == 0 {
		t.Fatalf("divergent append did not copy-on-write: %+v", st)
	}

	// The publisher's rows — and a fresh dense reference — must be intact.
	ref := model.NewDecoder(params, attention.NewQuantizedExact())
	ref.MustPrompt(prompt)
	for l := 0; l < cfg.Layers; l++ {
		for h := 0; h < cfg.Heads; h++ {
			pk, pv := pub.Cache(l, h)
			rk, rv := ref.Cache(l, h)
			for i := 64; i < 75; i++ {
				for j := range snap[[3]int{l, h, i}] {
					if pk.Row(i)[j] != snap[[3]int{l, h, i}][j] || pk.Row(i)[j] != rk.Row(i)[j] {
						t.Fatalf("layer %d head %d K row %d corrupted by adopter divergence", l, h, i)
					}
					if pv.Row(i)[j] != snap[[3]int{l, h, i + 1000}][j] || pv.Row(i)[j] != rv.Row(i)[j] {
						t.Fatalf("layer %d head %d V row %d corrupted by adopter divergence", l, h, i)
					}
				}
			}
		}
	}

	ad.Release()
	pub.Release()
	px.evictAll()
	if st := pool.Stats(); st.InUse != 0 {
		t.Fatalf("refcounts did not balance: %+v", st)
	}
}

// TestPreemptRequeueFinishes drives more concurrent sessions than the pool
// budget can hold at once: instead of finishing mid-flight sessions
// ReasonRejected, the scheduler must preempt the least-progressed ones —
// releasing their blocks and replaying their context later — and every
// session must still finish with the exact tokens a serial decode produces.
func TestPreemptRequeueFinishes(t *testing.T) {
	r := train.TestModel()
	cfg := r.Params.Cfg
	const (
		sessions  = 3
		maxNew    = 24
		blockRows = 8
	)
	// One session grows to 32 rows = 4 blocks in each of its 2*Layers*Heads
	// caches, i.e. 32 blocks; a 40-block budget fits one full session plus
	// change, so three concurrent sessions must take turns via preemption.
	maxBlocks := 10 * cfg.Layers * cfg.Heads
	prompts := make([][]int, sessions)
	for i := range prompts {
		prompts[i] = r.Held[i*9 : i*9+8]
	}

	srv := NewServer(r.Params, Config{
		Workers:     1,
		BlockRows:   blockRows,
		MaxBlocks:   maxBlocks,
		MaxPreempts: 16,
		NewKernel:   func() model.Kernel { return attention.NewQuantizedExact() },
	})
	streams := make([]*Stream, sessions)
	for i, p := range prompts {
		st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: p, MaxTokens: maxNew})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		streams[i] = st
	}
	got := make([][]int, sessions)
	var recompute int64
	for i, st := range streams {
		for ev := range st.Events() {
			tok := ev.Token
			got[i] = append(got[i], tok)
		}
		res := st.Result()
		if res.Reason != ReasonLength || res.Err != nil {
			t.Fatalf("session %d finished %q err=%v (want preempt-requeue, not reject)", i, res.Reason, res.Err)
		}
		recompute += int64(res.Usage.RecomputeTokens)
	}
	srv.Close()
	rep := srv.Report()
	if rep.Preempted == 0 {
		t.Fatalf("pool pressure never preempted anyone: %+v", rep)
	}
	if rep.RecomputeTokens == 0 {
		t.Fatalf("preempted sessions replayed nothing: %+v", rep)
	}
	// Per-session Usage must reconcile with the fleet counter.
	if recompute != rep.RecomputeTokens {
		t.Fatalf("session usage sums %d recompute tokens, fleet reports %d", recompute, rep.RecomputeTokens)
	}
	if st := srv.Pool().Stats(); st.InUse != 0 {
		t.Fatalf("%d blocks still referenced after drain", st.InUse)
	}
	for i, p := range prompts {
		want := decodeSerial(t, r.Params, attention.NewQuantizedExact(), p, maxNew)
		if len(got[i]) != len(want) {
			t.Fatalf("session %d emitted %d tokens, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("session %d token %d: preempted run %d != serial %d", i, j, got[i][j], want[j])
			}
		}
	}
}

// TestPreemptMultiWorkerUnderPressure runs the bounded-pool scenario with
// several workers and prefix sharing on: the resume gate must keep stalled
// sessions parked while the pool is saturated (instead of burning their
// preemption budget in a promote/stall loop), and everything must still
// finish with serial-exact tokens. Two shapes, each a budget of the cached
// prompt plus ~1.5 sessions' private rows: one where a session's context is
// mostly private generation, and one where it is mostly the shared prompt —
// there the pool never has a whole context free (the index holds the prompt),
// so the gate opens only because re-adoptable blocks are not counted against
// a parked session (TestResumeGateCountsCachedPrefixBlocks pins the rule).
func TestPreemptMultiWorkerUnderPressure(t *testing.T) {
	t.Run("private-heavy", func(t *testing.T) { testPreemptMultiWorker(t, 12, 20, 12) })
	t.Run("shared-heavy", func(t *testing.T) { testPreemptMultiWorker(t, 40, 8, 16) })
}

func testPreemptMultiWorker(t *testing.T, promptLen, maxNew, blocksPerHead int) {
	r := train.TestModel()
	cfg := r.Params.Cfg
	const (
		sessions  = 4
		blockRows = 8
	)
	maxBlocks := blocksPerHead * cfg.Layers * cfg.Heads
	prompt := r.Held[:promptLen] // shared prompt: preempted re-prefill hits the index

	srv := NewServer(r.Params, Config{
		Workers:     3,
		BlockRows:   blockRows,
		MaxBlocks:   maxBlocks,
		MaxPreempts: 64, // 4 sessions on 1.5 sessions' budget: many turns each; a preempt discards the partial rebuild, so unlucky schedules need patience
		SharePrefix: true,
		NewKernel:   func() model.Kernel { return attention.NewTokenPicker(1e-3) },
	})
	streams := make([]*Stream, sessions)
	for i := range streams {
		st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: maxNew})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		streams[i] = st
	}
	want := decodeSerial(t, r.Params, attention.NewTokenPicker(1e-3), prompt, maxNew)
	for i, st := range streams {
		var got []int
		for ev := range st.Events() {
			tok := ev.Token
			got = append(got, tok)
		}
		if res := st.Result(); res.Reason != ReasonLength || res.Err != nil {
			t.Fatalf("session %d finished %q err=%v", i, res.Reason, res.Err)
		}
		if len(got) != len(want) {
			t.Fatalf("session %d emitted %d tokens, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("session %d token %d: %d != serial %d", i, j, got[j], want[j])
			}
		}
	}
	srv.Close()
	if st := srv.Pool().Stats(); st.InUse != 0 {
		t.Fatalf("%d blocks still referenced after drain", st.InUse)
	}
}

// TestResumeGateCountsCachedPrefixBlocks pins the resume policy where prefix
// sharing meets preemption: a parked session needs room for its whole context
// minus the leading prompt blocks the index still caches (those are
// re-adopted, not leased), so a shared-prompt session resumes on the room its
// private rows need while a session with an uncached prompt of the same
// length stays parked, and no session resumes before another has finished
// since it parked.
func TestResumeGateCountsCachedPrefixBlocks(t *testing.T) {
	r := train.TestModel()
	cfg := r.Params.Cfg
	const blockRows = 8
	caches := 2 * cfg.Layers * cfg.Heads
	prompt := r.Held[:4*blockRows]
	other := r.Held[4*blockRows : 8*blockRows]

	// A finished session leaves its prompt's 4 blocks per cache in the index;
	// the budget leaves 2 more blocks per cache free.
	srv := NewServer(r.Params, Config{
		Workers:     1,
		BlockRows:   blockRows,
		MaxBlocks:   6 * caches,
		SharePrefix: true,
		NewKernel:   func() model.Kernel { return attention.NewQuantizedExact() },
	})
	defer srv.Close()
	st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res := st.Result(); res.Reason != ReasonLength {
		t.Fatalf("seeding session finished %q err=%v", res.Reason, res.Err)
	}
	if got := srv.Pool().Stats().InUse; got != int64(4*caches) {
		t.Fatalf("index holds %d blocks, want %d", got, 4*caches)
	}

	// 32 prompt + 4 generated rows = 5 blocks per cache. An adopter leaves the
	// last prompt token for prefill, so 3 of them come from the index and 2
	// are leased: exactly the free room. Uncached, all 5 are leased.
	shared := &session{req: GenerateRequest{Prompt: prompt}, generated: 4}
	if !srv.canResume(shared) {
		t.Fatal("parked shared-prompt session not resumable with room for its private rows")
	}
	// Parked since the last finish: its room belongs to the session it
	// yielded to.
	yielded := &session{req: GenerateRequest{Prompt: prompt}, generated: 4, parkedAt: srv.finishes.Load()}
	if srv.canResume(yielded) {
		t.Fatal("session resumable before any session finished since it parked")
	}
	unique := &session{req: GenerateRequest{Prompt: other}, generated: 4}
	if srv.canResume(unique) {
		t.Fatal("parked session with an uncached prompt resumable without room for its context")
	}
	shared.generated = 4 + blockRows // one more private block than the pool has
	if srv.canResume(shared) {
		t.Fatal("parked shared-prompt session resumable without room for its private rows")
	}
}

// TestPrefixCollisionLeavesResidentEntry forces the chain-hash collision /
// orphaned-chain branch of publish and walk: a resident entry sits at the
// exact chain hash a prompt's first chunk produces, but holds different
// tokens. The structural checks must refuse to splice it — publish leaves
// the resident entry alone (no overwrite, nothing published over it), walk
// refuses adoption — and the sessions' tokens must still match the serial
// reference exactly.
func TestPrefixCollisionLeavesResidentEntry(t *testing.T) {
	r := train.TestModel()
	cfg := r.Params.Cfg
	const (
		blockRows = 8
		maxNew    = 12
	)
	prompt := r.Held[:blockRows+4] // one full chunk + a 4-row tail

	srv := NewServer(r.Params, Config{
		Workers:     1,
		BlockRows:   blockRows,
		SharePrefix: true,
		NewKernel:   func() model.Kernel { return attention.NewQuantizedExact() },
	})

	// Plant an impostor at the prompt's first-chunk chain hash, with tokens
	// that cannot match (shifted mod vocab). It holds no pool blocks, so the
	// refcount drain check below also proves nothing ever retained through it.
	h := chunkHash(fnvOffset, prompt[:blockRows])
	impostorTokens := make([]int, blockRows)
	for i, tok := range prompt[:blockRows] {
		impostorTokens[i] = (tok + 1) % cfg.VocabSize
	}
	impostor := &prefixEntry{key: h, depth: 1, tokens: append([]int(nil), impostorTokens...)}
	srv.prefixes.mu.Lock()
	srv.prefixes.entries[h] = impostor
	srv.prefixes.mu.Unlock()

	want := decodeSerial(t, r.Params, attention.NewQuantizedExact(), prompt, maxNew)
	for sess := 0; sess < 2; sess++ {
		st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: maxNew})
		if err != nil {
			t.Fatalf("submit %d: %v", sess, err)
		}
		var got []int
		for ev := range st.Events() {
			got = append(got, ev.Token)
		}
		if res := st.Result(); res.Reason != ReasonLength || res.Err != nil {
			t.Fatalf("session %d finished %q err=%v", sess, res.Reason, res.Err)
		}
		if len(got) != len(want) {
			t.Fatalf("session %d emitted %d tokens, want %d", sess, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("session %d token %d: collision run %d != serial %d", sess, j, got[j], want[j])
			}
		}
	}
	srv.Close()

	// The resident entry survived both publish attempts untouched: same
	// object (Close's evictAll emptied the map, so check the pre-Close
	// capture), and publish never replaced or mutated it.
	srv.prefixes.mu.Lock()
	stats := srv.prefixes.stats
	srv.prefixes.mu.Unlock()
	if impostor.depth != 1 || impostor.parent != nil || !equalTokens(impostor.tokens, impostorTokens) {
		t.Fatalf("resident entry mutated across collision: %+v", impostor)
	}
	if stats.Published != 0 {
		t.Fatalf("collision branch still published %d entries over the resident chain", stats.Published)
	}
	if stats.Hits != 0 || stats.RowsReused != 0 {
		t.Fatalf("colliding entry was adopted: %+v", stats)
	}
	if st := srv.Pool().Stats(); st.InUse != 0 {
		t.Fatalf("%d blocks still referenced after drain", st.InUse)
	}
}

// TestPrefixKey pins the router-facing chain-hash contract: equality for
// prompts sharing their leading full chunks, the maxChunks cap, divergence
// past the cap being invisible, and the no-full-chunk degenerate case.
func TestPrefixKey(t *testing.T) {
	base := testTokens(70, 3, 50)
	const B = 16

	keyA, chunksA := PrefixKey(base, B, 4)
	if chunksA != 4 {
		t.Fatalf("70 tokens at blockRows 16: %d chunks, want 4", chunksA)
	}
	// Same leading chunks, different tail: same key.
	shared := append(append([]int(nil), base[:64]...), 1, 2, 3)
	if keyB, chunksB := PrefixKey(shared, B, 4); keyB != keyA || chunksB != 4 {
		t.Fatalf("shared-prefix prompt keyed differently: %d/%d vs %d/%d", keyB, chunksB, keyA, chunksA)
	}
	// Divergence inside the hashed window: different key.
	div := append([]int(nil), base...)
	div[10] = (div[10] + 1) % 50
	if keyC, _ := PrefixKey(div, B, 4); keyC == keyA {
		t.Fatalf("divergent chunk collided with the base key")
	}
	// The cap hides divergence past it.
	late := append([]int(nil), base...)
	late[40] = (late[40] + 1) % 50 // chunk 3 of 4
	if keyD, chunksD := PrefixKey(late, B, 2); chunksD != 2 {
		t.Fatalf("cap 2 hashed %d chunks", chunksD)
	} else if keyE, _ := PrefixKey(base, B, 2); keyD != keyE {
		t.Fatalf("divergence past the cap changed the key")
	}
	// The key must agree with the chain hash the index itself computes.
	if wantH := chunkHash(fnvOffset, base[:B]); func() uint64 { k, _ := PrefixKey(base, B, 1); return k }() != wantH {
		t.Fatalf("PrefixKey disagrees with the index chain hash")
	}
	// No full chunk: zero chunks, offset-basis key.
	if k, n := PrefixKey(base[:B-1], B, 4); n != 0 || k != fnvOffset {
		t.Fatalf("sub-chunk prompt: key %d chunks %d, want offset basis and 0", k, n)
	}
}

// TestPreemptionDisabledRejects restores the pre-preemption contract with
// MaxPreempts < 0: pool exhaustion finishes the session ReasonRejected.
func TestPreemptionDisabledRejects(t *testing.T) {
	params := model.NewParams(model.TestConfig(), 9)
	srv := NewServer(params, Config{Workers: 1, BlockRows: 8, MaxBlocks: 1, MaxPreempts: -1})
	defer srv.Close()

	st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: []int{1, 2, 3}, MaxTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := st.Result()
	if res.Reason != ReasonRejected || !errors.Is(res.Err, ErrNoBlocks) {
		t.Fatalf("result %+v, want rejected with ErrNoBlocks", res)
	}
}
