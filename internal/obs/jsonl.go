package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The JSONL trace schema: one object per line, fixed fields, all integers
// except the kind name. It is the wire form of Event, stable so recorded
// serving traces can be replayed offline (internal/sim co-simulation) and
// diffed across versions.
//
//	{"sid":3,"kind":"decode_step","t_ns":18000321,"step":7,"tokens":1,
//	 "rows":103,"batch":2,"queue":4,"stalled":0,"pool_inuse":52,
//	 "pool_free":3,"detail":0,"rid":9129335182957815321}
//
// TraceSchemaVersion identifies this layout; it rides the header line
// emitted by NewJSONLWriter ({"trace_schema":2}). Version 2 added the
// "rid" field (the request-id hash correlating one request across fleet
// replicas); ParseTrace still reads version-1 traces, where rid is absent
// and decodes to zero.
const TraceSchemaVersion = 2

// AppendEvent appends ev's JSONL line (newline included) to dst and returns
// the extended slice. Allocation-free once dst has capacity.
//
//topick:noalloc
func AppendEvent(dst []byte, ev Event) []byte {
	dst = append(dst, `{"sid":`...)
	dst = strconv.AppendUint(dst, ev.Session, 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, ev.Kind.String()...)
	dst = append(dst, `","t_ns":`...)
	dst = strconv.AppendInt(dst, ev.T, 10)
	dst = append(dst, `,"step":`...)
	dst = strconv.AppendInt(dst, int64(ev.Step), 10)
	dst = append(dst, `,"tokens":`...)
	dst = strconv.AppendInt(dst, int64(ev.Tokens), 10)
	dst = append(dst, `,"rows":`...)
	dst = strconv.AppendInt(dst, int64(ev.Rows), 10)
	dst = append(dst, `,"batch":`...)
	dst = strconv.AppendInt(dst, int64(ev.Batch), 10)
	dst = append(dst, `,"queue":`...)
	dst = strconv.AppendInt(dst, int64(ev.Queue), 10)
	dst = append(dst, `,"stalled":`...)
	dst = strconv.AppendInt(dst, int64(ev.Stalled), 10)
	dst = append(dst, `,"pool_inuse":`...)
	dst = strconv.AppendInt(dst, int64(ev.InUse), 10)
	dst = append(dst, `,"pool_free":`...)
	dst = strconv.AppendInt(dst, int64(ev.Free), 10)
	dst = append(dst, `,"detail":`...)
	dst = strconv.AppendInt(dst, int64(ev.Detail), 10)
	dst = append(dst, `,"rid":`...)
	dst = strconv.AppendUint(dst, ev.ReqID, 10)
	dst = append(dst, '}', '\n')
	return dst
}

// JSONLWriter is a Tracer sink that streams events as JSON lines. The
// encoder is hand-rolled over a reused buffer, so recording stays
// allocation-free in steady state even with a trace file attached. It is
// driven under the tracer's lock and must not be shared with another
// writer. Call Flush (or Close the tracer's owner) before reading the file.
type JSONLWriter struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONLWriter wraps w and emits the schema header line.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	jw := &JSONLWriter{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
	fmt.Fprintf(jw.w, "{\"trace_schema\":%d}\n", TraceSchemaVersion)
	return jw
}

// Record implements Sink. The buffer is reused across events, so steady-state
// recording allocates nothing.
//
//topick:noalloc
func (jw *JSONLWriter) Record(ev Event) {
	if jw.err != nil {
		return
	}
	jw.buf = AppendEvent(jw.buf[:0], ev)
	if _, err := jw.w.Write(jw.buf); err != nil {
		jw.err = err
	}
}

// Flush drains the buffered writer and returns the first write error.
func (jw *JSONLWriter) Flush() error {
	if err := jw.w.Flush(); err != nil && jw.err == nil {
		jw.err = err
	}
	return jw.err
}

// wireEvent is the parse shape of one JSONL line; unknown fields are
// rejected so schema drift is caught at the parser, not downstream.
type wireEvent struct {
	Sid     uint64 `json:"sid"`
	Kind    string `json:"kind"`
	TNs     int64  `json:"t_ns"`
	Step    int32  `json:"step"`
	Tokens  int32  `json:"tokens"`
	Rows    int32  `json:"rows"`
	Batch   int32  `json:"batch"`
	Queue   int32  `json:"queue"`
	Stalled int32  `json:"stalled"`
	InUse   int32  `json:"pool_inuse"`
	Free    int32  `json:"pool_free"`
	Detail  int32  `json:"detail"`
	Rid     uint64 `json:"rid"`
}

type traceHeader struct {
	Schema int `json:"trace_schema"`
}

// ParseTrace reads a JSONL trace back into events, validating the schema
// line by line: the optional header's version must match, every field must
// be known, and every kind name must decode.
func ParseTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if line == 1 && bytes.Contains(raw, []byte(`"trace_schema"`)) {
			var hdr traceHeader
			if err := json.Unmarshal(raw, &hdr); err != nil {
				return nil, fmt.Errorf("obs: trace header: %w", err)
			}
			if hdr.Schema != TraceSchemaVersion && hdr.Schema != 1 {
				return nil, fmt.Errorf("obs: trace schema %d, this parser reads 1..%d", hdr.Schema, TraceSchemaVersion)
			}
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var we wireEvent
		if err := dec.Decode(&we); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if dec.InputOffset() != int64(len(raw)) {
			return nil, fmt.Errorf("obs: trace line %d: data after the event", line)
		}
		kind := KindFromString(we.Kind)
		if kind == KindInvalid {
			return nil, fmt.Errorf("obs: trace line %d: unknown kind %q", line, we.Kind)
		}
		events = append(events, Event{
			Session: we.Sid, ReqID: we.Rid, Kind: kind, T: we.TNs,
			Step: we.Step, Tokens: we.Tokens, Rows: we.Rows,
			Batch: we.Batch, Queue: we.Queue, Stalled: we.Stalled,
			InUse: we.InUse, Free: we.Free, Detail: we.Detail,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: trace read: %w", err)
	}
	return events, nil
}
