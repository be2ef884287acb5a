package obs

import "sort"

// StepSample is one attention-step observation extracted from a serving
// trace: the per-step batch shape the cycle-level simulator replays
// (co-simulation under real serving traffic). Each
// decode_step and replay_step event yields one sample; prefill chunks yield
// one sample per chunk with Tokens > 1.
type StepSample struct {
	TNs     int64  // nanoseconds since trace epoch
	Session uint64 // which session stepped
	Rows    int32  // context rows the step attended over
	Tokens  int32  // tokens consumed by the step (1 for decode, chunk for prefill)
	Batch   int32  // sessions mid-dispatch when the step ran
	Prefill bool   // prompt-phase step (exact attention) vs generation step
	Replay  bool   // preemption-replay step (recompute, nothing emitted)
}

// ReplaySteps extracts the attention-step samples of a trace in time order.
// This is the simulator's food: every sample carries the context length and
// concurrent batch shape of one real attention step under serving traffic.
func ReplaySteps(events []Event) []StepSample {
	var out []StepSample
	for _, ev := range events {
		switch ev.Kind {
		case KindDecodeStep, KindReplayStep:
			out = append(out, StepSample{
				TNs: ev.T, Session: ev.Session, Rows: ev.Rows, Tokens: 1,
				Batch: ev.Batch, Replay: ev.Kind == KindReplayStep,
			})
		case KindPrefillChunk:
			if ev.Tokens > 0 {
				out = append(out, StepSample{
					TNs: ev.T, Session: ev.Session, Rows: ev.Rows,
					Tokens: ev.Tokens, Batch: ev.Batch, Prefill: true,
				})
			}
		}
	}
	return out
}

// TraceSummary aggregates a trace into the headline serving numbers.
type TraceSummary struct {
	Sessions      int
	Finished      int
	DecodeSteps   int
	ReplaySteps   int
	PrefillChunks int
	PrefillTokens int64
	PrefixRows    int64 // rows adopted from the prefix index
	Preempts      int
	MaxBatch      int32 // peak sessions mid-dispatch
	MaxQueue      int32
	MaxRows       int32 // longest context attended by any step
	SpanNs        int64 // first-to-last event time
}

// Summarize folds a trace into its TraceSummary.
func Summarize(events []Event) TraceSummary {
	var s TraceSummary
	seen := make(map[uint64]struct{})
	var first, last int64
	for i, ev := range events {
		if i == 0 {
			first = ev.T
		}
		last = ev.T
		if _, ok := seen[ev.Session]; !ok {
			seen[ev.Session] = struct{}{}
		}
		if ev.Batch > s.MaxBatch {
			s.MaxBatch = ev.Batch
		}
		if ev.Queue > s.MaxQueue {
			s.MaxQueue = ev.Queue
		}
		switch ev.Kind {
		case KindDecodeStep:
			s.DecodeSteps++
			if ev.Rows > s.MaxRows {
				s.MaxRows = ev.Rows
			}
		case KindReplayStep:
			s.ReplaySteps++
		case KindPrefillChunk:
			s.PrefillChunks++
			s.PrefillTokens += int64(ev.Tokens)
		case KindPrefixAdopt:
			s.PrefixRows += int64(ev.Tokens)
		case KindPreempt:
			s.Preempts++
		case KindFinish:
			s.Finished++
		}
	}
	s.Sessions = len(seen)
	s.SpanNs = last - first
	return s
}

// SampleEvenly thins samples to at most max entries, keeping the time
// distribution: the simulator pays cycles per instance, so replaying a
// long trace wants an even subsample, not a prefix.
func SampleEvenly(samples []StepSample, max int) []StepSample {
	if max <= 0 || len(samples) <= max {
		return samples
	}
	out := make([]StepSample, 0, max)
	stride := float64(len(samples)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, samples[int(float64(i)*stride)])
	}
	return out
}

// BatchHistogram counts steps by their concurrent batch size, ascending —
// the concurrency profile a multi-request simulator arm sweeps over.
func BatchHistogram(samples []StepSample) (sizes []int32, counts []int) {
	byBatch := make(map[int32]int)
	for _, s := range samples {
		byBatch[s.Batch]++
	}
	for b := range byBatch {
		sizes = append(sizes, b)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	counts = make([]int, len(sizes))
	for i, b := range sizes {
		counts[i] = byBatch[b]
	}
	return sizes, counts
}
