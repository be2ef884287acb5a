package attention

import (
	"math/rand"
	"sort"
	"testing"

	"tokenpicker/internal/model"
	"tokenpicker/internal/train"
)

// TestQuickselectMatchesFullSort checks rebuildActive against the reference
// O(n log n) implementation (full sort by the priority order, take the
// prefix, sort ascending) across random importance tables, including heavy
// ties. The priority order is strict and total, so the two must agree
// exactly.
func TestQuickselectMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := spattenConfig(0.4, true)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(97)
		k := NewSpAtten(cfg)
		k.syncContext(n)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				k.importance[i] = 0 // all-ties regime (first step after prompt)
			case 1:
				k.importance[i] = float64(rng.Intn(4)) // coarse ties
			default:
				k.importance[i] = rng.Float64()
			}
		}
		layer := rng.Intn(cfg.Layers)
		k.rebuildActive(layer, n)
		got := k.ActiveTokens(layer)

		want := referenceActive(k, layer, n)
		if len(got) != len(want) {
			t.Fatalf("trial %d n=%d layer %d: got %d rows, want %d", trial, n, layer, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d n=%d layer %d: active %v != reference %v", trial, n, layer, got, want)
			}
		}
	}
}

// referenceActive reimplements the pre-quickselect selection verbatim.
func referenceActive(k *SpAtten, layer, n int) []int {
	target := len(k.active[layer]) // rebuildActive already computed the size
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	newest := n - 1
	sort.Slice(rank, func(a, b int) bool {
		if rank[a] == newest {
			return true
		}
		if rank[b] == newest {
			return false
		}
		if k.importance[rank[a]] != k.importance[rank[b]] {
			return k.importance[rank[a]] > k.importance[rank[b]]
		}
		return rank[a] > rank[b]
	})
	kept := append([]int(nil), rank[:target]...)
	sort.Ints(kept)
	return kept
}

// TestSpAttenIncrementalBitIdentical decodes the same sequence with the
// side-car visible and with it stripped (stripQuant); the stateful
// importance tables must evolve identically and the logits match bit for
// bit.
func TestSpAttenIncrementalBitIdentical(t *testing.T) {
	r := train.TestModel()
	cfg := spattenConfig(0.5, true)
	decInc := model.NewDecoder(r.Params, NewSpAtten(cfg))
	decScr := model.NewDecoder(r.Params, stripQuant{NewSpAtten(cfg)})
	prompt := r.Held[:32]
	decInc.MustPrompt(prompt)
	decScr.MustPrompt(prompt)
	for i := 0; i < 48; i++ {
		tok := r.Held[32+i]
		li := decInc.MustStep(tok)
		ls := decScr.MustStep(tok)
		for v := range li {
			if li[v] != ls[v] {
				t.Fatalf("step %d vocab %d: incremental %g != scratch %g", i, v, li[v], ls[v])
			}
		}
	}
}
