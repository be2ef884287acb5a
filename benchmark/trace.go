package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of the
// span that caused it (0 = root); spans of one request share Req. The name is
// an index into the recorder's name table, which keeps the span free of
// pointers: the garbage collector then never scans the span buffer, however
// many spans a hot loop records.
type span struct {
	id, parent, req int32
	name            int32
	start, end      int64 // ns since the recorder's epoch
}

// spanLine is a span as written to the trace file.
type spanLine struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory; they are written out once,
// when the run ends. A nil *recorder records nothing, so timed runs pass nil
// and pay one predictable branch per call site.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	names []string
	ids   map[string]int32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16), ids: map[string]int32{}}
}

// push appends a span; the caller holds mu.
func (r *recorder) push(name string, parent, req int32, start, end int64) int32 {
	n, ok := r.ids[name]
	if !ok {
		n = int32(len(r.names))
		r.names = append(r.names, name)
		r.ids[name] = n
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{id: id, parent: parent, req: req, name: n, start: start, end: end})
	return id
}

// begin opens a span and returns its id for end and for children's Parent.
func (r *recorder) begin(name string, parent, req int32) int32 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := r.push(name, parent, req, now, 0)
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// add records an interval that was timed by the caller.
func (r *recorder) add(name string, parent, req int32, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	s := int64(start.Sub(r.epoch))
	r.mu.Lock()
	r.push(name, parent, req, s, s+int64(dur))
	r.mu.Unlock()
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the time covered by child spans
	Durs  []float64     // per-span durations, microseconds
}

// totals folds the spans by name. A span's self time is its duration minus
// its children's; children of one span never overlap here because each
// parent is driven by one goroutine.
func (r *recorder) totals() map[string]*spanTotal {
	out := map[string]*spanTotal{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.parent > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for _, s := range r.spans {
		t := out[r.names[s.name]]
		if t == nil {
			t = &spanTotal{}
			out[r.names[s.name]] = t
		}
		d := s.end - s.start
		t.Count++
		t.Total += time.Duration(d)
		t.Self += time.Duration(d - child[s.id])
		t.Durs = append(t.Durs, float64(d)/1e3)
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(spanLine{s.id, s.parent, s.req, r.names[s.name], s.start, s.end}); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
