package obs

import (
	"bytes"
	"strings"
	"testing"
)

// synthTrace builds a two-session history: session 1 runs clean, session 2
// adopts a prefix, is preempted once, resumes, and finishes.
func synthTrace(t *Tracer) {
	rec := func(ev Event) { t.Record(ev) }
	rec(Event{Session: 1, Kind: KindSubmit, ReqID: 0x9e3779b97f4a7c15})
	rec(Event{Session: 1, Kind: KindQueued, ReqID: 0x9e3779b97f4a7c15})
	rec(Event{Session: 2, Kind: KindSubmit})
	rec(Event{Session: 2, Kind: KindPrefixAdopt, Tokens: 32})
	rec(Event{Session: 2, Kind: KindQueued})
	rec(Event{Session: 1, Kind: KindAdmitted, Batch: 1})
	rec(Event{Session: 1, Kind: KindPrefillChunk, Tokens: 24, Rows: 24, Batch: 1})
	rec(Event{Session: 1, Kind: KindDecodeStep, Step: 1, Tokens: 1, Rows: 25, Batch: 2})
	rec(Event{Session: 2, Kind: KindAdmitted, Batch: 2})
	rec(Event{Session: 2, Kind: KindPrefillChunk, Tokens: 8, Rows: 40, Batch: 2})
	rec(Event{Session: 2, Kind: KindPreempt, Detail: PreemptSelf})
	rec(Event{Session: 2, Kind: KindPark, Stalled: 1})
	rec(Event{Session: 1, Kind: KindDecodeStep, Step: 2, Tokens: 1, Rows: 26, Batch: 1})
	rec(Event{Session: 1, Kind: KindFinish, Step: 2, Rows: 24, Detail: 1})
	rec(Event{Session: 2, Kind: KindResume})
	rec(Event{Session: 2, Kind: KindPrefixAdopt, Tokens: 32})
	rec(Event{Session: 2, Kind: KindReplayStep, Rows: 41, Batch: 1})
	rec(Event{Session: 2, Kind: KindDecodeStep, Step: 1, Tokens: 1, Rows: 42, Batch: 1})
	rec(Event{Session: 2, Kind: KindFinish, Step: 1, Tokens: 64, Rows: 40, Detail: 1})
}

func TestTracerRingAndTail(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 10; i++ {
		tr.Record(Event{Session: uint64(i), Kind: KindSubmit})
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("total %d, want 10", got)
	}
	tail := tr.Tail(100)
	if len(tail) != 4 {
		t.Fatalf("tail holds %d, want ring capacity 4", len(tail))
	}
	for i, ev := range tail {
		if ev.Session != uint64(7+i) {
			t.Fatalf("tail[%d] is session %d, want %d (oldest-first order)", i, ev.Session, 7+i)
		}
	}
	if got := tr.Tail(2); len(got) != 2 || got[1].Session != 10 {
		t.Fatalf("tail(2) = %v, want the two newest", got)
	}
}

func TestTracerTimestampsMonotonic(t *testing.T) {
	tr := NewTracer(64)
	synthTrace(tr)
	events := tr.Tail(64)
	var last int64 = -1
	for i, ev := range events {
		if ev.T < last {
			t.Fatalf("event %d timestamp regressed", i)
		}
		last = ev.T
	}
	if err := ValidateTimeline(events, false); err != nil {
		t.Fatalf("synthetic trace should validate: %v", err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(64)
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	tr.SetSink(jw)
	synthTrace(tr)
	if err := jw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want := tr.Tail(64)
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip lost events: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if err := ValidateTimeline(got, false); err != nil {
		t.Fatalf("parsed trace should validate: %v", err)
	}
}

func TestParseTraceRejectsSchemaDrift(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"sid":1,"kind":"submit","t_ns":0,"step":0,"tokens":0,"rows":0,"batch":0,"queue":0,"stalled":0,"pool_inuse":0,"pool_free":0,"detail":0,"rid":0,"surprise":1}`,
		"unknown kind":   `{"sid":1,"kind":"teleport","t_ns":0,"step":0,"tokens":0,"rows":0,"batch":0,"queue":0,"stalled":0,"pool_inuse":0,"pool_free":0,"detail":0,"rid":0}`,
		"future schema":  `{"trace_schema":999}`,
		"malformed line": `{"sid":`,
		// A second value on one line used to be dropped without an error.
		"two values on one line": `{"sid":1,"kind":"submit","t_ns":1} {"sid":2,"kind":"submit","t_ns":2}`,
		"data after the event":   `{"sid":1,"kind":"submit","t_ns":1}}`,
	}
	for name, line := range cases {
		if _, err := ParseTrace(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: parser accepted %q", name, line)
		}
	}
}

// Schema-1 traces predate the "rid" field; the parser must keep reading
// them (rid decodes to zero).
func TestParseTraceAcceptsSchemaV1(t *testing.T) {
	trace := "{\"trace_schema\":1}\n" +
		`{"sid":1,"kind":"submit","t_ns":0,"step":0,"tokens":0,"rows":0,"batch":0,"queue":0,"stalled":0,"pool_inuse":0,"pool_free":0,"detail":0}` + "\n"
	events, err := ParseTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatalf("schema-1 trace rejected: %v", err)
	}
	if len(events) != 1 || events[0].ReqID != 0 || events[0].Kind != KindSubmit {
		t.Fatalf("schema-1 trace misread: %+v", events)
	}
}

func TestValidateTimelineCatchesInconsistencies(t *testing.T) {
	base := func() []Event {
		return []Event{
			{Session: 1, Kind: KindSubmit, T: 1},
			{Session: 1, Kind: KindFinish, T: 2},
		}
	}
	if err := ValidateTimeline(base(), false); err != nil {
		t.Fatalf("clean timeline rejected: %v", err)
	}

	regressed := base()
	regressed[1].T = 0
	if err := ValidateTimeline(regressed, false); err == nil {
		t.Errorf("timestamp regression not caught")
	}

	unmatched := []Event{
		{Session: 1, Kind: KindSubmit, T: 1},
		{Session: 1, Kind: KindPreempt, T: 2},
		{Session: 1, Kind: KindPark, T: 3},
		{Session: 1, Kind: KindFinish, T: 4},
	}
	if err := ValidateTimeline(unmatched, false); err == nil {
		t.Errorf("preempt without resume not caught")
	}

	rowsWrong := []Event{
		{Session: 1, Kind: KindSubmit, T: 1},
		{Session: 1, Kind: KindPrefixAdopt, Tokens: 32, T: 2},
		{Session: 1, Kind: KindFinish, Tokens: 16, T: 3}, // finish claims 16 adopted rows
	}
	if err := ValidateTimeline(rowsWrong, false); err == nil {
		t.Errorf("prefix-adopt row mismatch not caught")
	}

	noFinish := []Event{{Session: 1, Kind: KindSubmit, T: 1}}
	if err := ValidateTimeline(noFinish, false); err == nil {
		t.Errorf("missing finish not caught in strict mode")
	}
	if err := ValidateTimeline(noFinish, true); err != nil {
		t.Errorf("partial trace rejected with allowPartial: %v", err)
	}
}

func TestReplayStepsAndSummary(t *testing.T) {
	tr := NewTracer(64)
	synthTrace(tr)
	events := tr.Tail(64)

	steps := ReplaySteps(events)
	// 4 decode/replay steps + 2 prefill chunks.
	if len(steps) != 6 {
		t.Fatalf("replay extracted %d steps, want 6", len(steps))
	}
	var prefill, replay int
	for _, s := range steps {
		if s.Prefill {
			prefill++
		}
		if s.Replay {
			replay++
		}
	}
	if prefill != 2 || replay != 1 {
		t.Fatalf("prefill=%d replay=%d, want 2 and 1", prefill, replay)
	}

	sum := Summarize(events)
	if sum.Sessions != 2 || sum.Finished != 2 || sum.DecodeSteps != 3 ||
		sum.ReplaySteps != 1 || sum.Preempts != 1 || sum.PrefixRows != 64 {
		t.Fatalf("summary wrong: %+v", sum)
	}
	if sum.MaxBatch != 2 || sum.PrefillTokens != 32 {
		t.Fatalf("summary shape wrong: %+v", sum)
	}

	thinned := SampleEvenly(steps, 3)
	if len(thinned) != 3 {
		t.Fatalf("SampleEvenly kept %d, want 3", len(thinned))
	}
	sizes, counts := BatchHistogram(steps)
	if len(sizes) == 0 || len(sizes) != len(counts) {
		t.Fatalf("batch histogram malformed: %v %v", sizes, counts)
	}
}
