package serve

import (
	"context"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/model"
	"tokenpicker/internal/train"
)

// TestPrefixIndexTrimEvictsLRULeafFirst drives the index directly: a publish
// never evicts the chain it just walked, even when that chain alone exceeds
// the budget; the next publish evicts the older chain, deepest entry first,
// and only as far as the budget requires.
func TestPrefixIndexTrimEvictsLRULeafFirst(t *testing.T) {
	cfg := model.TestConfig()
	params := model.NewParams(cfg, 33)
	const blockRows = 16
	pool := NewPool(blockRows, cfg.HeadDim, 0)
	px := newPrefixIndex(pool, blockRows, cfg.Layers, cfg.Heads)
	perEntry := 2 * cfg.Layers * cfg.Heads * px.blockBytes

	publish := func(seed int) []int {
		prompt := testTokens(3*blockRows, seed, cfg.VocabSize) // 3 entries, no tail
		dec := model.NewDecoderWith(params, nil, pool.Provider())
		dec.MustPrompt(prompt)
		px.publish(dec, prompt)
		dec.Release()
		return prompt
	}
	px.budget = 2 * perEntry
	a := publish(1)
	if st := px.Stats(); st.Entries != 3 || st.Evicted != 0 {
		t.Fatalf("a publish trimmed its own over-budget chain: %+v", st)
	}
	px.budget = 4 * perEntry
	b := publish(2)
	// 6 entries against a budget of 4: A's two deepest chunks go, its root
	// stays; B, just published, is untouched.
	if st := px.Stats(); st.Entries != 4 || st.Evicted != 2 {
		t.Fatalf("after second publish: %+v", st)
	}
	if got := px.cachedBlocks(append(a, 0)); got != 1 {
		t.Fatalf("older chain keeps %d chunks, want its root only", got)
	}
	if got := px.cachedBlocks(append(b, 0)); got != 3 {
		t.Fatalf("fresh chain keeps %d chunks, want 3", got)
	}
	if st := pool.Stats(); int(st.InUse)*px.blockBytes != px.budget {
		t.Fatalf("pool holds %d blocks, want the budget of %d bytes", st.InUse, px.budget)
	}
	// An adoption ending at B's leaf makes its kernels build quantized
	// snapshots of all three chunks per cache side; the index counts them at
	// once, which puts it over budget again: A's root goes.
	ad := model.NewDecoderWith(params, nil, pool.Provider())
	if rows := px.adopt(ad, append(b, 0), true, true); rows != 3*blockRows {
		t.Fatalf("adopted %d rows, want %d", rows, 3*blockRows)
	}
	snap := 2 * cfg.Layers * cfg.Heads * fixed.NewSharedQuant(3*blockRows).Footprint(cfg.HeadDim)
	if px.held != 3*perEntry+snap || px.Stats().Entries != 3 || px.cachedBlocks(append(a, 0)) != 0 {
		t.Fatalf("after adoption: held %d (want %d), %+v", px.held, 3*perEntry+snap, px.Stats())
	}
	ad.Release()
	px.evictAll()
	if st := pool.Stats(); st.InUse != 0 || px.held != 0 {
		t.Fatalf("refcounts did not balance: %+v, held %d", st, px.held)
	}
	if st := px.Stats(); st.Entries != 0 || st.Evicted != st.Published {
		t.Fatalf("stats after evictAll: %+v", st)
	}
}

// TestServerPrefixBudgetBoundsRetention pushes 4.8 times the index budget of
// unique prompts through a sharing server with an unbounded pool, while one
// hot system prompt is re-submitted every round. The index must stay within
// its budget (the pool used to retain every prompt ever served), must keep
// the hot chain — every re-submission touches it — and tokens must equal a
// server with sharing off.
func TestServerPrefixBudgetBoundsRetention(t *testing.T) {
	r := train.TestModel()
	cfg := r.Params.Cfg
	const (
		blockRows = 16
		promptLen = 40 // 2 full chunks + 8-row tail: 3 block refs per cache side
		rounds    = 12
	)
	blockBytes := 4 * blockRows * cfg.HeadDim
	perChain := 3 * 2 * cfg.Layers * cfg.Heads * blockBytes
	budget := 5 * perChain // the hot chain, its quantized snapshots (14 KiB) and three others
	hot := testTokens(promptLen, 0, cfg.VocabSize)

	run := func(share bool) (tokens [][]int, lastHot Result, srv *Server) {
		srv = NewServer(r.Params, Config{
			Workers:     2,
			BlockRows:   blockRows,
			SharePrefix: share,
			NewKernel:   func() model.Kernel { return attention.NewTokenPicker(1e-3) },
		})
		if share {
			srv.prefixes.budget = budget
		}
		submit := func(prompt []int) *Stream {
			st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: prompt, MaxTokens: 4})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			return st
		}
		drain := func(st *Stream, got []int) Result {
			for ev := range st.Events() {
				got = append(got, ev.Token)
			}
			tokens = append(tokens, got)
			if res := st.Result(); res.Reason != ReasonLength {
				t.Fatalf("session finished %q err=%v", res.Reason, res.Err)
			}
			return st.Result()
		}
		for round := 0; round <= rounds; round++ {
			// The hot prompt's first token proves its adoption (the LRU
			// touch) happened before this round's unique prompts publish.
			hs := submit(hot)
			first := (<-hs.Events()).Token
			var us []*Stream
			if round < rounds {
				us = append(us, submit(testTokens(promptLen, 2*round+1, cfg.VocabSize)),
					submit(testTokens(promptLen, 2*round+2, cfg.VocabSize)))
			}
			lastHot = drain(hs, []int{first})
			for _, st := range us {
				drain(st, nil)
			}
		}
		return tokens, lastHot, srv
	}

	shared, lastHot, srv := run(true)
	if lastHot.Usage.PrefixHitRows != promptLen-1 {
		t.Fatalf("hot prompt adopted %d rows on its last submission, want %d: the LRU touch lost it",
			lastHot.Usage.PrefixHitRows, promptLen-1)
	}
	ps := srv.prefixes.Stats()
	if ps.Evicted == 0 {
		t.Fatalf("nothing evicted after %dx the budget of unique prompts: %+v", rounds*2*perChain/budget, ps)
	}
	if ps.Entries != int(ps.Published-ps.Evicted) {
		t.Fatalf("entries %d != published %d - evicted %d", ps.Entries, ps.Published, ps.Evicted)
	}
	if st := srv.Pool().Stats(); int(st.InUse)*blockBytes > budget {
		t.Fatalf("%d blocks retained after drain, budget %d bytes", st.InUse, budget)
	}
	srv.Close()
	if st := srv.Pool().Stats(); st.InUse != 0 {
		t.Fatalf("%d blocks still referenced after Close", st.InUse)
	}

	unshared, _, ref := run(false)
	ref.Close()
	for i := range shared {
		if len(shared[i]) != len(unshared[i]) {
			t.Fatalf("session %d: shared emitted %d tokens, unshared %d", i, len(shared[i]), len(unshared[i]))
		}
		for j := range shared[i] {
			if shared[i][j] != unshared[i][j] {
				t.Fatalf("session %d token %d: shared %d != unshared %d", i, j, shared[i][j], unshared[i][j])
			}
		}
	}
}
