package obs

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzParseTrace feeds arbitrary bytes to ParseTrace. It must never panic,
// and a trace it accepts must re-encode through JSONLWriter and parse back
// to the same events. The corpus is testdata/fuzz.
func FuzzParseTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewJSONLWriter(&buf)
		for _, ev := range events {
			w.Record(ev)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not parse: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(events, again) {
			t.Fatalf("round trip changed the events:\n%+v\n%+v", events, again)
		}
	})
}
