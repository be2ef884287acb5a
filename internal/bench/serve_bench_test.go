package bench

import (
	"testing"

	"tokenpicker/internal/train"
)

func TestCompareServing(t *testing.T) {
	o := DefaultServingOptions()
	o.Sessions = 8
	o.MaxNew = 24
	o.Workers = 1 // the one runner must interleave the sessions itself
	r := train.TestModel()
	res := CompareServing(r, o)
	if res.Report.Completed() != int64(o.Sessions) {
		t.Fatalf("completed %d of %d sessions", res.Report.Completed(), o.Sessions)
	}
	if res.TotalTokens != int64(o.Sessions*o.MaxNew) {
		t.Fatalf("generated %d tokens, want %d", res.TotalTokens, o.Sessions*o.MaxNew)
	}
	if res.Report.Pool.AllocatedRows() >= res.EagerRows {
		t.Fatalf("pool rows %d not below eager %d", res.Report.Pool.AllocatedRows(), res.EagerRows)
	}
	if pr := res.Report.Attn.PruningRatio(); !(pr > 1) {
		t.Fatalf("fleet pruning ratio %g", pr)
	}
	// The structural win holds on any core count, stated as an order: the
	// serialized arm queues sessions whole by construction, while one runner
	// stepping the sessions round-robin gives each its first token within a
	// few rounds, long before session 0 has generated its MaxNew tokens.
	if res.BatchedStarted != o.Sessions {
		t.Fatalf("continuous batching: %d of %d sessions emitted a token before the first finished",
			res.BatchedStarted, o.Sessions)
	}
	_ = ServingTable(res).String()
}

// BenchmarkServing regenerates the serving comparison: serialized decoding
// vs the continuous-batching engine over the same mixed-length traffic.
// Custom metrics report the wall-clock speedup and both throughputs.
func BenchmarkServing(b *testing.B) {
	o := DefaultServingOptions()
	r := train.TestModel()
	for i := 0; i < b.N; i++ {
		res := CompareServing(r, o)
		b.ReportMetric(res.Speedup, "speedup")
		b.ReportMetric(res.SerialTokSec, "serial-tok/s")
		b.ReportMetric(res.BatchedTokSec, "batched-tok/s")
		b.ReportMetric(res.Report.Attn.PruningRatio(), "pruning-ratio")
	}
}

func TestCompareIterationBatching(t *testing.T) {
	o := DefaultBatchingOptions()
	o.Sessions = 8
	o.MaxNew = 12
	r := train.TestModel()
	res := CompareIterationBatching(r, o)
	if !res.TokensMatch {
		t.Fatal("iteration batching changed emitted tokens")
	}
	if res.TotalTokens != int64(o.Sessions*o.MaxNew) {
		t.Fatalf("generated %d tokens, want %d", res.TotalTokens, o.Sessions*o.MaxNew)
	}
	if res.Iterations == 0 {
		t.Fatal("batched arm recorded no iterations")
	}
	// Mixed decode traffic must actually co-schedule rows: mean occupancy of
	// 1 would mean the batched arm degenerated to per-session stepping.
	if res.Occupancy <= 1 {
		t.Fatalf("mean batch occupancy %.2f rows; expected cross-session batching", res.Occupancy)
	}
	if res.BatchedReport.Completed() != int64(o.Sessions) {
		t.Fatalf("completed %d of %d sessions", res.BatchedReport.Completed(), o.Sessions)
	}
	_ = BatchingTable(res).String()
}
