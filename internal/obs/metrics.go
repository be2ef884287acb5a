// Package obs is the engine-wide observability layer: a zero-alloc metrics
// core (sharded counters, gauges, fixed-bucket histograms, merged on read)
// with Prometheus text exposition, plus a per-session lifecycle tracer whose
// span events feed a ring buffer, an optional JSONL recorder, and — via the
// replay helpers — the cycle-level accelerator simulator.
//
// Everything on the record path (Counter.Add, Gauge.Set, Histogram.Observe,
// Tracer.Record) performs zero heap allocations in steady state, so the
// serving engine can instrument its per-token hot path without reintroducing
// garbage. All read paths (Value, Quantile, WritePrometheus, Tail) are
// scrape-time and may allocate freely.
package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// shard is one cache-line-padded counter cell: workers writing neighbouring
// shards must not false-share a line.
type shard struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. Writers on known
// lanes (decode workers) use AddSlot with their lane index so concurrent
// increments land on distinct cache lines; Add is the anonymous-caller path.
// Value merges the shards on read.
type Counter struct {
	shards []shard
	mask   int
}

func newCounter(nshards int) *Counter {
	return &Counter{shards: make([]shard, nshards), mask: nshards - 1}
}

// Add increments the counter by n on shard 0.
//
//topick:noalloc
func (c *Counter) Add(n int64) { c.shards[0].v.Add(n) }

// Inc increments the counter by one on shard 0.
//
//topick:noalloc
func (c *Counter) Inc() { c.shards[0].v.Add(1) }

// AddSlot increments by n on the shard selected by slot (wrapped to the
// shard count), so fixed writers never contend on one cache line.
//
//topick:noalloc
func (c *Counter) AddSlot(slot int, n int64) { c.shards[slot&c.mask].v.Add(n) }

// Value merges the shards.
func (c *Counter) Value() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].v.Load()
	}
	return n
}

// Gauge is an instantaneous value (queue depth, in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
//
//topick:noalloc
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrement).
//
//topick:noalloc
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefDurationBuckets is the default histogram geometry for latencies, in
// seconds: 50µs up to 20s, roughly doubling — wide enough for TTFT under
// preemption and tight enough to resolve inter-token latency.
func DefDurationBuckets() []float64 {
	return []float64{
		50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
		1, 2.5, 5, 10, 20,
	}
}

// Histogram is a fixed-bucket latency histogram: cumulative bucket counts
// over static upper bounds plus a +Inf bucket, a running sum, and a count.
// Observe is lock-free and allocation-free; quantiles are estimated on read
// by linear interpolation inside the owning bucket.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, exclusive of +Inf
	counts  []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	count   atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
}

// Observe records one value.
//
//topick:noalloc
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≈18) and the common latencies
	// land early; a branch-predicted walk beats binary search at this size.
	idx := -1
	for i, ub := range h.bounds {
		if v <= ub {
			idx = i
			break
		}
	}
	if idx < 0 {
		h.inf.Add(1)
	} else {
		h.counts[idx].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns Sum/Count (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 < q < 1) by locating the bucket
// holding the q·count-th observation and interpolating linearly inside it.
// Values beyond the last finite bound clamp to that bound. Returns 0 when
// nothing was observed.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	lower := 0.0
	for i, ub := range h.bounds {
		c := h.counts[i].Load()
		if c > 0 && float64(cum)+float64(c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + frac*(ub-lower)
		}
		cum += c
		lower = ub
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// series is one exposed time series: an optional label set plus a value
// source (a concrete metric or a read-time func).
type series struct {
	labels string // rendered label pairs, e.g. `reason="length"`, or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is one Prometheus metric family: a name, help text, a type, and
// its series.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series []series
}

// Registry holds metric families in registration order and renders them in
// the Prometheus text exposition format. Register everything at setup time;
// registration takes a lock, recording never does.
type Registry struct {
	mu       sync.Mutex
	families []*family
	index    map[string]*family
	shards   int
}

// NewRegistry builds an empty registry. Counter shard width is sized to the
// host (capped at 16 and rounded up to a power of two).
func NewRegistry() *Registry {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	s := 1
	for s < n {
		s <<= 1
	}
	return &Registry{index: make(map[string]*family), shards: s}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.index[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ}
	r.families = append(r.families, f)
	r.index[name] = f
	return f
}

// Counter registers (or extends) a counter family; labels is the rendered
// constant label set of this series (e.g. `reason="length"`), or "".
func (r *Registry) Counter(name, help, labels string) *Counter {
	f := r.family(name, help, "counter")
	c := newCounter(r.shards)
	r.mu.Lock()
	f.series = append(f.series, series{labels: labels, c: c})
	r.mu.Unlock()
	return c
}

// CounterFunc registers a counter series computed at scrape time — for
// monotonic totals a subsystem already tracks (pool leases, prefix hits),
// so exposition needs no double bookkeeping.
func (r *Registry) CounterFunc(name, help, labels string, fn func() float64) {
	f := r.family(name, help, "counter")
	r.mu.Lock()
	f.series = append(f.series, series{labels: labels, fn: fn})
	r.mu.Unlock()
}

// Gauge registers a gauge series.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	f := r.family(name, help, "gauge")
	g := &Gauge{}
	r.mu.Lock()
	f.series = append(f.series, series{labels: labels, g: g})
	r.mu.Unlock()
	return g
}

// GaugeFunc registers a gauge series computed at scrape time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	f := r.family(name, help, "gauge")
	r.mu.Lock()
	f.series = append(f.series, series{labels: labels, fn: fn})
	r.mu.Unlock()
}

// Histogram registers a histogram series over the given ascending bucket
// bounds (nil = DefDurationBuckets).
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefDurationBuckets()
	}
	f := r.family(name, help, "histogram")
	h := newHistogram(bounds)
	r.mu.Lock()
	f.series = append(f.series, series{labels: labels, h: h})
	r.mu.Unlock()
	return h
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
	} else {
		fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatFloat(v))
	}
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers once per
// family, histogram series as cumulative _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				writeSample(w, f.name, s.labels, float64(s.c.Value()))
			case s.g != nil:
				writeSample(w, f.name, s.labels, float64(s.g.Value()))
			case s.fn != nil:
				writeSample(w, f.name, s.labels, s.fn())
			case s.h != nil:
				var cum int64
				for i, ub := range s.h.bounds {
					cum += s.h.counts[i].Load()
					writeSample(w, f.name+"_bucket", joinLabels(s.labels, `le="`+formatFloat(ub)+`"`), float64(cum))
				}
				cum += s.h.inf.Load()
				writeSample(w, f.name+"_bucket", joinLabels(s.labels, `le="+Inf"`), float64(cum))
				writeSample(w, f.name+"_sum", s.labels, s.h.Sum())
				writeSample(w, f.name+"_count", s.labels, float64(s.h.Count()))
			}
		}
	}
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}
