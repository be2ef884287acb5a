package bench

import (
	"fmt"
	"testing"

	"tokenpicker/internal/train"
)

// TestCompareSpeculativeTokensMatch: prompt-lookup drafting must propose
// tokens and still emit the no-speculation baseline's exact streams.
func TestCompareSpeculativeTokensMatch(t *testing.T) {
	o := DefaultSpeculativeOptions()
	o.Sessions = 4
	o.MaxNew = 16
	res := CompareSpeculative(train.TestModel(), o)
	if res.TotalTokens != int64(o.Sessions*o.MaxNew) {
		t.Fatalf("baseline generated %d tokens, want %d", res.TotalTokens, o.Sessions*o.MaxNew)
	}
	if !res.TokensMatch {
		t.Error("drafting changed the emitted tokens")
	}
	if res.Drafted == 0 {
		t.Error("the draft source proposed no tokens")
	}
	if res.Accepted > res.Drafted {
		t.Errorf("%d accepted of %d drafted", res.Accepted, res.Drafted)
	}
}

// BenchmarkSpeculativeServing decodes the same greedy traffic with
// speculation off and with n-gram drafting, at the default 8 sessions × 32
// tokens and at one session × 128 tokens, and reports drafting's wall-clock
// speedup over speculation off and its acceptance rate:
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
				if !res.TokensMatch {
					b.Fatal("drafting changed the emitted tokens")
				}
				b.ReportMetric(res.Speedup, "speedup")
				b.ReportMetric(res.AcceptanceRate, "acceptance")
			}
		})
	}
}
