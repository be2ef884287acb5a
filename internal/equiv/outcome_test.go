package equiv

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/fleet"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/sample"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/train"
)

// maxNew is every request's token budget.
const maxNew = 12

// Outcome is what a point produced. Tokens holds one stream per request,
// in wave order.
type Outcome struct {
	Tokens [][]int
	// Logits hashes every logits vector a token was sampled from, in
	// order; 0 where the engine does not expose logits.
	Logits uint64
	// Usage is per request (serving engines only).
	Usage []serve.Usage
	// Report is the engine's report after Close, summed over replicas; a
	// library point fills in only Pool, from its paged store.
	Report serve.Report
	// Spec sums the speculative accounting: the library's decoders', or
	// the serving engines' topick_spec_* counters (Emitted stays 0).
	Spec model.SpecStats
}

// diff describes the first way got differs from the reference o.
func (o Outcome) diff(got Outcome) string {
	if len(got.Tokens) < len(o.Tokens) {
		return fmt.Sprintf("%d requests finished, want %d", len(got.Tokens), len(o.Tokens))
	}
	for i, want := range o.Tokens {
		if len(got.Tokens[i]) != len(want) {
			return fmt.Sprintf("request %d emitted %d tokens, reference %d", i, len(got.Tokens[i]), len(want))
		}
		for j := range want {
			if got.Tokens[i][j] != want[j] {
				return fmt.Sprintf("request %d token %d: %d != reference %d", i, j, got.Tokens[i][j], want[j])
			}
		}
	}
	if got.Logits != 0 && got.Logits != o.Logits {
		return fmt.Sprintf("logits hash %#x != reference %#x", got.Logits, o.Logits)
	}
	return ""
}

// fixture is one model with its traffic. Prompts 0-3 (43 down to 34
// tokens) are one of two 20-token system prompts plus their own suffix;
// prompt 4 follows prompt 0 for 41 tokens and then diverges, inside prompt
// 0's last, partial block at every store block size.
type fixture struct {
	params  *model.Params
	prompts [][]int
}

// waves lists the prompts each wave submits; a wave starts once the one
// before it has drained. With sharing on, wave 2 adopts prompt 0's blocks
// and must copy the shared tail before its divergent row lands, and wave 3
// re-reads that tail.
var waves = [][]int{{0, 1, 2, 3}, {4}, {0}}

// requests is the prompt of every request, in wave order.
var requests = slices.Concat(waves...)

// Subtests run one at a time, so these caches need no lock.
var (
	fixtures = map[string]*fixture{}
	refs     = map[Point]Outcome{}
)

func fixtureFor(name string) *fixture {
	if fx, ok := fixtures[name]; ok {
		return fx
	}
	var params *model.Params
	var src []int
	switch name {
	case "trained":
		r := train.TestModel()
		params, src = r.Params, r.Held
	case "parallel":
		params = model.NewParams(model.Config{
			Name: "parallel-test", VocabSize: 96, Layers: 2, Heads: 8,
			HeadDim: 8, FFNMult: 2, MaxSeq: 512, Eps: 1e-5,
		}, 77)
		// Repeating phrases with drifting ids, so prompt lookup finds
		// suffix matches to draft from.
		src = make([]int, 256)
		for i := range src {
			src[i] = ((i%37)*29 + (i/37)*3) % 96
		}
	}
	fx := &fixture{params: params}
	for i := 0; i < 4; i++ {
		sys := src[64*(i%2) : 64*(i%2)+20]
		suffix := src[128+9*i : 128+9*i+23-3*i]
		fx.prompts = append(fx.prompts, append(append([]int(nil), sys...), suffix...))
	}
	fx.prompts = append(fx.prompts, append(append([]int(nil), fx.prompts[0][:41]...), src[200:206]...))
	fixtures[name] = fx
	return fx
}

func (p Point) int(axis int) int { return atoi(p.value(axis)) }

func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		panic(err)
	}
	return n
}

// blockRows is the paged store's block size (0 for dense).
func (p Point) blockRows() int {
	n, _ := strconv.Atoi(strings.TrimPrefix(p.value(axStore), "paged"))
	return n
}

// width is the library executor's width: 1 for serial, N for poolN (0 for
// shared).
func (p Point) width() int {
	switch v := p.value(axExec); v {
	case "serial":
		return 1
	case "shared":
		return 0
	default:
		return atoi(strings.TrimPrefix(v, "pool"))
	}
}

func (p Point) newKernel(cfg model.Config) model.Kernel {
	switch p.value(axKernel) {
	case "quantized-exact":
		return attention.NewQuantizedExact()
	case "token-picker":
		return attention.NewTokenPicker(1e-3)
	case "oracle":
		return attention.NewOracle(1e-3)
	case "spatten":
		return attention.NewSpAtten(attention.SpAttenConfig{
			KeepRatio: 0.5, MinKeep: 4, Layers: cfg.Layers, Heads: cfg.Heads,
			Cascade: true, Bits: 12,
		})
	}
	return nil // exact
}

// sampling is request i's sampler configuration; the second wave reuses
// request 0's.
func (p Point) sampling(i int) sample.Config {
	if p.value(axSampling) == "greedy" {
		return sample.Config{}
	}
	return sample.Config{Temperature: 0.9, TopK: 24, TopP: 0.95,
		RepetitionPenalty: 1.1, Seed: int64(42 + i)}
}

// reference is the bottom point's Outcome for p's model, kernel and
// sampling, computed once per process.
func reference(t *testing.T, p Point) Outcome {
	var bottom Point
	bottom[axModel], bottom[axKernel], bottom[axSampling] = p[axModel], p[axKernel], p[axSampling]
	ref, ok := refs[bottom]
	if !ok {
		ref = drive(t, bottom)
		refs[bottom] = ref
	}
	return ref
}

// drive runs p's traffic on p's engine.
func drive(t *testing.T, p Point) Outcome {
	t.Helper()
	if p.value(axEngine) == "library" {
		return driveLibrary(t, p)
	}
	return driveServing(t, p)
}

// emitter samples each logits vector it is handed, hashing it first.
type emitter struct {
	chain *sample.Chain
	hist  []int
	out   []int
	h     hash.Hash64
}

func (e *emitter) Emit(logits []float32) (int, bool) {
	var b [4]byte
	for _, v := range logits {
		e.h.Write(binary.LittleEndian.AppendUint32(b[:0], math.Float32bits(v)))
	}
	tok := e.chain.Sample(logits, e.hist)
	e.out = append(e.out, tok)
	e.hist = append(e.hist, tok)
	return tok, len(e.out) >= maxNew
}

// driveLibrary decodes each prompt alone on a fresh decoder.
func driveLibrary(t *testing.T, p Point) Outcome {
	fx := fixtureFor(p.value(axModel))
	cfg := fx.params.Cfg
	var prov model.CacheProvider
	var pool *serve.Pool
	if rows := p.blockRows(); rows > 0 {
		pool = serve.NewPool(rows, cfg.HeadDim, 0)
		prov = pool.Provider()
	}
	var ex exec.Executor
	switch w := p.width(); {
	case w == 0:
		ex = exec.Shared()
	case w > 1:
		pl := exec.NewPool(w)
		defer pl.Close()
		ex = pl
	}
	h := fnv.New64a()
	var out Outcome
	var streams [][]int
	for i, prompt := range fx.prompts {
		kernel := p.newKernel(cfg)
		dec := model.NewDecoderWith(fx.params, kernel, prov)
		dec.Exec = ex
		em := &emitter{chain: sample.MustNew(p.sampling(i)), hist: append([]int(nil), prompt...), h: h}
		logits, err := dec.Prompt(prompt)
		if err != nil {
			t.Fatalf("prompt %d: %v", i, err)
		}
		tok, _ := em.Emit(logits)
		if k := p.int(axSpec); k > 0 {
			sd := model.NewSpecDecoder(dec, &model.NgramDraft{}, k)
			eng := model.NewBatchEngine(fx.params)
			for len(em.out) < maxNew {
				if _, err := sd.Step(eng, kernel, ex, em.hist, maxNew-len(em.out)-1, em); err != nil {
					t.Fatalf("speculative step: %v", err)
				}
			}
			st := sd.Stats()
			out.Spec.Drafted += st.Drafted
			out.Spec.Accepted += st.Accepted
			out.Spec.RolledBack += st.RolledBack
			out.Spec.Emitted += st.Emitted
			out.Spec.Passes += st.Passes
		}
		for len(em.out) < maxNew {
			if logits, err = dec.Step(tok); err != nil {
				t.Fatalf("step: %v", err)
			}
			tok, _ = em.Emit(logits)
		}
		dec.Release()
		streams = append(streams, em.out)
	}
	for _, i := range requests {
		out.Tokens = append(out.Tokens, streams[i])
	}
	out.Logits = h.Sum64()
	if pool != nil {
		out.Report.Pool = pool.Stats()
	}
	return out
}

// driveServing submits each wave's requests at once to a server or fleet
// and drains them before the next wave.
func driveServing(t *testing.T, p Point) Outcome {
	var held gate
	fx := fixtureFor(p.value(axModel))
	cfg := fx.params.Cfg
	sc := serve.Config{
		Workers:     p.int(axWorkers),
		BlockRows:   p.blockRows(),
		SharePrefix: p.value(axShare) == "on",
	}
	if p.value(axKernel) != "exact" {
		sc.NewKernel = func() model.Kernel { return p.newKernel(cfg) }
	}
	sc.SpeculateK = p.int(axSpec)
	if pressure := p.value(axPressure); pressure != "none" {
		// Room for the longest session, plus at tight one spare block row
		// for the copy of a shared tail block (at exact, a lone session
		// must unpublish its own tail instead): two sessions of one system
		// prompt, which affinity routes to one replica, overflow it
		// together. A verify pass's drafts stop at the session's token
		// budget, so speculation needs no room of its own; room for a
		// draft window would let two sessions fit at some block sizes.
		longest := 0
		for _, pr := range fx.prompts {
			longest = max(longest, len(pr))
		}
		rows := longest + maxNew
		blocks := (rows + sc.BlockRows - 1) / sc.BlockRows
		if pressure == "tight" {
			blocks++
		}
		sc.MaxBlocks = blocks * cfg.Layers * cfg.Heads * 2
		sc.MaxPreempts = 128
		// Those two must be live together, or one finishes before the
		// other needs room: decode waits at the gate (see holdWave).
		mk := sc.NewKernel
		sc.NewKernel = func() model.Kernel {
			var k model.Kernel = &model.ExactKernel{}
			if mk != nil {
				k = mk()
			}
			return &gatedKernel{Kernel: k, gate: &held}
		}
	}

	var servers []*serve.Server
	var submit func(serve.GenerateRequest) (*serve.Stream, error)
	var closeAll func()
	var traceBuf bytes.Buffer
	var sink *obs.JSONLWriter
	var fl *fleet.Fleet
	if p.value(axEngine) == "fleet" {
		fl = fleet.NewFleet(fx.params, fleet.Config{Replicas: p.int(axReplicas), Affinity: true, Serve: sc})
		for i := 0; i < fl.Replicas(); i++ {
			servers = append(servers, fl.Replica(i))
		}
		submit = func(req serve.GenerateRequest) (*serve.Stream, error) {
			return fl.Submit(context.Background(), fleet.Request{GenerateRequest: req})
		}
		closeAll = fl.Close
	} else {
		tracer := obs.NewTracer(1 << 15)
		sink = obs.NewJSONLWriter(&traceBuf)
		tracer.SetSink(sink)
		sc.Tracer = tracer
		srv := serve.NewServer(fx.params, sc)
		servers = []*serve.Server{srv}
		submit = func(req serve.GenerateRequest) (*serve.Stream, error) {
			return srv.Submit(context.Background(), req)
		}
		closeAll = srv.Close
	}

	var out Outcome
	for _, w := range waves {
		streams := make([]*serve.Stream, len(w))
		held.Lock()
		for k, i := range w {
			st, err := submit(serve.GenerateRequest{Prompt: fx.prompts[i], MaxTokens: maxNew, Sampling: p.sampling(i)})
			if err != nil {
				held.Unlock()
				t.Fatalf("submit %d: %v", i, err)
			}
			streams[k] = st
		}
		if p.value(axPressure) != "none" && len(w) > 1 {
			held.holdWave(servers, p.int(axWorkers))
		}
		held.Unlock()
		for _, st := range streams {
			var toks []int
			for ev := range st.Events() {
				toks = append(toks, ev.Token)
			}
			res := st.Result()
			if res.Reason != serve.ReasonLength || res.Err != nil {
				t.Fatalf("request %d finished %q err=%v", len(out.Tokens), res.Reason, res.Err)
			}
			out.Tokens = append(out.Tokens, toks)
			out.Usage = append(out.Usage, res.Usage)
		}
	}
	// Close before reading counters: a runner books an iteration's row
	// counters after the iteration's sessions finish.
	closeAll()

	var reps []serve.Report
	for _, srv := range servers {
		reps = append(reps, srv.Report())
		checkServerCounters(t, p, srv)
		met := srv.Metrics()
		out.Spec.Drafted += met.SpecDrafted.Value()
		out.Spec.Accepted += met.SpecAccepted.Value()
		out.Spec.RolledBack += met.SpecRolledBack.Value()
		out.Spec.Passes += met.SpecVerifies.Value()
	}
	out.Report = fleet.Report{Replicas: reps}.Rollup()
	if fl != nil {
		rt := fl.Report().Routing
		if n := rt.Affinity + rt.Spilled + rt.Balanced; n != int64(len(out.Tokens)) {
			t.Errorf("router decided %d placements for %d requests (%+v)", n, len(out.Tokens), rt)
		}
	}
	if sink != nil {
		checkTrace(t, p, sink, &traceBuf, servers[0].Metrics())
	}
	return out
}

// gate holds the generation-phase attention of a pressure point's runners
// while a wave is submitted (write-held); prefill attends exactly and never
// waits. waiting counts the runners blocked at it.
type gate struct {
	sync.RWMutex
	waiting atomic.Int32
}

// holdWave keeps decode held after a multi-session wave is in, until the
// sessions have overlapped in a pool (some server preempted) or every
// runner waits at the gate. Released earlier, one session can finish
// before the next one prefills: a runner that steps on the shared pool
// keeps both cores of a 2-CPU host busy, and the runner holding the
// other session then waits for a CPU. The 100 ms bound covers a fleet
// whose other replicas' runners sit idle.
func (g *gate) holdWave(servers []*serve.Server, workers int) {
	runners := int32(workers * len(servers))
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		if g.waiting.Load() >= runners {
			return
		}
		for _, srv := range servers {
			if srv.Metrics().Preemptions.Value() > 0 {
				return
			}
		}
	}
}

// gatedKernel is a generation kernel whose layers wait while gate is
// write-held. It forwards the wrapped kernel's transfer accounting, so the
// server still drains it every iteration.
type gatedKernel struct {
	model.Kernel
	gate *gate
}

// statKernel is that accounting; the exact kernel keeps none.
type statKernel interface {
	Stats() attention.Stats
	ResetStats()
}

func (k *gatedKernel) AttendLayer(batch model.AttendBatch) {
	k.gate.waiting.Add(1)
	k.gate.RLock()
	k.gate.RUnlock()
	k.gate.waiting.Add(-1)
	k.Kernel.AttendLayer(batch)
}

func (k *gatedKernel) Stats() attention.Stats {
	if sk, ok := k.Kernel.(statKernel); ok {
		return sk.Stats()
	}
	return attention.Stats{}
}

func (k *gatedKernel) ResetStats() {
	if sk, ok := k.Kernel.(statKernel); ok {
		sk.ResetStats()
	}
}

// checkServerCounters reconciles one engine's metric families with its
// report: iterations ran, and iteration rows match tokens.
func checkServerCounters(t *testing.T, p Point, srv *serve.Server) {
	t.Helper()
	met, rep := srv.Metrics(), srv.Report()
	if rep.Admitted > 0 && met.BatchIterations.Value() == 0 {
		t.Errorf("%d sessions admitted, no iteration recorded", rep.Admitted)
	}
	if p.int(axSpec) == 0 {
		if got, want := met.BatchDecodeRows.Value(), rep.GenTokens+rep.RecomputeTokens; got != want {
			t.Errorf("batch decode rows %d, want steps+replays %d", got, want)
		}
		if got, want := met.BatchPrefillRows.Value(), rep.PromptTokens; got != want {
			t.Errorf("batch prefill rows %d, want prefilled prompt tokens %d", got, want)
		}
	}
}

// checkTrace validates a server's lifecycle trace; a speculating server
// records one verify_step per verify pass and draft_steps when it drafted.
func checkTrace(t *testing.T, p Point, sink *obs.JSONLWriter, buf *bytes.Buffer, met *serve.Metrics) {
	t.Helper()
	if err := sink.Flush(); err != nil {
		t.Fatalf("trace sink: %v", err)
	}
	events, err := obs.ParseTrace(buf)
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	if err := obs.ValidateTimeline(events, false); err != nil {
		t.Fatalf("trace inconsistent: %v", err)
	}
	var drafts, verifies int64
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindDraftStep:
			drafts++
		case obs.KindVerifyStep:
			verifies++
		}
	}
	if verifies != met.SpecVerifies.Value() || (met.SpecDrafted.Value() > 0) != (drafts > 0) {
		t.Errorf("trace recorded %d draft / %d verify events; engine drafted %d in %d verifies",
			drafts, verifies, met.SpecDrafted.Value(), met.SpecVerifies.Value())
	}
}

// checkOutcome asserts the per-point invariants the replaced tests checked
// beside token identity.
func checkOutcome(t *testing.T, p Point, o Outcome) {
	t.Helper()
	fx := fixtureFor(p.value(axModel))
	spec := p.int(axSpec)
	rep := o.Report
	if rep.Pool.InUse != 0 {
		t.Errorf("%d blocks still leased after drain", rep.Pool.InUse)
	}
	if p.blockRows() > 0 && rep.Pool.Recycled() == 0 {
		t.Error("later sessions recycled no blocks")
	}
	// A speculating point drafts n-grams, and the fixtures repeat enough
	// for prompt lookup to find matches.
	if o.Spec.Drafted != o.Spec.Accepted+o.Spec.RolledBack ||
		(spec > 0) != (o.Spec.Passes > 0) || (spec > 0) != (o.Spec.Drafted > 0) {
		t.Errorf("speculation stats %+v", o.Spec)
	}
	if p.value(axEngine) == "library" {
		if spec > 0 && o.Spec.Emitted != int64(len(fx.prompts)*(maxNew-1)) {
			t.Errorf("speculation emitted %d tokens, want %d", o.Spec.Emitted, len(fx.prompts)*(maxNew-1))
		}
		return
	}

	var drafted, accepted int64
	for i, u := range o.Usage {
		prompt := fx.prompts[requests[i]]
		if u.GeneratedTokens != maxNew || u.PromptTokens != len(prompt) {
			t.Errorf("request %d usage %+v, want %d generated from a %d-token prompt", i, u, maxNew, len(prompt))
		}
		if u.AcceptedDraftTokens > u.DraftedTokens {
			t.Errorf("request %d accepted %d of %d drafted", i, u.AcceptedDraftTokens, u.DraftedTokens)
		}
		drafted += int64(u.DraftedTokens)
		accepted += int64(u.AcceptedDraftTokens)
	}
	if o.Spec.Drafted != drafted || o.Spec.Accepted != accepted {
		t.Errorf("spec counters drafted %d / accepted %d, usage totals %d / %d",
			o.Spec.Drafted, o.Spec.Accepted, drafted, accepted)
	}
	if p.value(axPressure) != "none" {
		if rep.Preempted == 0 && rep.RecomputeTokens == 0 {
			t.Error("pool pressure produced no preemption")
		}
	} else if p.value(axShare) == "on" {
		for _, u := range o.Usage[len(waves[0]):] {
			if u.PrefixHitRows == 0 {
				t.Error("a later wave adopted no prefix rows")
			}
		}
		if rep.Prefix.RowsReused == 0 {
			t.Error("the prefix index reused no rows")
		}
		if rep.Pool.Copies == 0 {
			t.Error("the divergent adopter copied no shared block")
		}
		var submitted int64
		for _, u := range o.Usage {
			submitted += int64(u.PromptTokens)
		}
		if rep.PromptTokens >= submitted {
			t.Errorf("sharing prefilled %d of %d prompt tokens", rep.PromptTokens, submitted)
		}
	}
}
