package bench

import (
	"fmt"
	"testing"

	"tokenpicker/internal/train"
)

// TestCompareSpeculativeTokensMatch: both draft sources, prompt-lookup
// n-grams and the pruned-attention decoder draft, must propose tokens and
// still emit the no-speculation baseline's exact streams.
func TestCompareSpeculativeTokensMatch(t *testing.T) {
	o := DefaultSpeculativeOptions()
	o.Sessions = 4
	o.MaxNew = 16
	res := CompareSpeculative(train.TestModel(), o)
	if res.TotalTokens != int64(o.Sessions*o.MaxNew) {
		t.Fatalf("baseline generated %d tokens, want %d", res.TotalTokens, o.Sessions*o.MaxNew)
	}
	drafts := map[string]bool{}
	for _, arm := range res.Arms {
		drafts[arm.Draft] = true
		if !arm.TokensMatch {
			t.Errorf("draft %s changed the emitted tokens", arm.Draft)
		}
		if arm.Drafted == 0 {
			t.Errorf("draft %s proposed no tokens", arm.Draft)
		}
		if arm.Accepted > arm.Drafted {
			t.Errorf("draft %s: %d accepted of %d drafted", arm.Draft, arm.Accepted, arm.Drafted)
		}
	}
	if !drafts["ngram"] || !drafts["decoder"] || len(drafts) != 2 {
		t.Fatalf("arms %v, want ngram and decoder", drafts)
	}
}

// BenchmarkSpeculativeServing decodes the same greedy traffic with
// speculation off and once per draft source, at the default 8 sessions × 32
// tokens and at one session × 128 tokens, and reports each draft's
// wall-clock speedup over speculation off and its acceptance rate:
//
//	go test -run xxx -bench SpeculativeServing -benchtime 1x -count 3 ./internal/bench
func BenchmarkSpeculativeServing(b *testing.B) {
	r := train.TestModel()
	for _, shape := range []struct{ sessions, maxNew int }{{8, 32}, {1, 128}} {
		o := DefaultSpeculativeOptions()
		o.Sessions, o.MaxNew = shape.sessions, shape.maxNew
		b.Run(fmt.Sprintf("sessions=%d/tokens=%d", o.Sessions, o.MaxNew), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := CompareSpeculative(r, o)
				for _, arm := range res.Arms {
					if !arm.TokensMatch {
						b.Fatalf("draft %s changed the emitted tokens", arm.Draft)
					}
					b.ReportMetric(arm.Speedup, arm.Draft+"-speedup")
					b.ReportMetric(arm.AcceptanceRate, arm.Draft+"-acceptance")
				}
			}
		})
	}
}
