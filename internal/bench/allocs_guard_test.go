package bench

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/tensor"
)

// TestAttendSteadyStateZeroAllocs is the regression guard for the
// incremental-quantization and head-parallel work: once warmed up, no
// kernel's layer attention may allocate when the context is stable — under
// the serial executor and under the pool executor alike (per-slot scratch
// must be provisioned during warm-up and then reused, and Pool.Run itself
// must dispatch without garbage). Any allocation here reintroduces
// per-token garbage on the serving hot path, so the test fails hard rather
// than reporting a benchmark delta someone has to notice.
func TestAttendSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	cfg := model.TestConfig()
	pool := exec.NewPool(2)
	defer pool.Close()
	executors := []struct {
		name string
		ex   exec.Executor
	}{
		{"serial", exec.Serial{}},
		{"pool", pool},
	}
	batch := warmLayerBatch(cfg)
	n := batch.Ns[0]
	for _, et := range executors {
		batch.Exec = et.ex
		// Fresh kernels per executor so each provisions its own slot count.
		for _, name := range DecodeKernels() {
			k := newDecodeKernel(name, cfg)
			attend := func() { k.AttendLayer(batch) }
			for i := 0; i < 3; i++ {
				attend() // warm up slot scratch and the quantized side-car
			}
			if allocs := testing.AllocsPerRun(100, attend); allocs != 0 {
				t.Errorf("%s/%s: steady-state AttendLayer allocates %g times per call",
					et.name, name, allocs)
			}
		}
	}

	// The same guard with the serving instrumentation live: timing a step
	// into a histogram, bumping a sharded counter, and recording a traced
	// event teed to a JSONL sink must add zero allocations on top of the
	// kernel — "observability on" may never cost per-token garbage.
	reg := obs.NewRegistry()
	stepHist := reg.Histogram("guard_step_seconds", "step latency", "", obs.DefDurationBuckets())
	genCtr := reg.Counter("guard_tokens_total", "tokens", "")
	tracer := obs.NewTracer(1 << 10)
	tracer.SetSink(obs.NewJSONLWriter(io.Discard))
	k := newDecodeKernel(DecodeKernels()[0], cfg)
	batch.Exec = exec.Serial{}
	var step int32
	instrumented := func() {
		start := time.Now()
		k.AttendLayer(batch)
		stepHist.Observe(time.Since(start).Seconds())
		genCtr.AddSlot(1, 1)
		step++
		tracer.Record(obs.Event{
			Session: 1, Kind: obs.KindDecodeStep, Step: step, Tokens: 1,
			Rows: int32(n), Batch: 1, InUse: 4, Free: 2,
		})
	}
	for i := 0; i < 3; i++ {
		instrumented()
	}
	if allocs := testing.AllocsPerRun(100, instrumented); allocs != 0 {
		t.Errorf("instrumented decode step allocates %g times per call", allocs)
	}
}

// warmLayerBatch returns a one-row, layer-0 batch over a 96-token context that
// an exact prompt filled, on the serial executor: the fixed-context input of
// the steady-state guards.
func warmLayerBatch(cfg model.Config) model.AttendBatch {
	dec := model.NewDecoder(model.NewParams(cfg, 31), nil)
	prompt := make([]int, 96)
	for i := range prompt {
		prompt[i] = (i * 13) % cfg.VocabSize
	}
	dec.MustPrompt(prompt)

	d := cfg.DModel()
	rng := rand.New(rand.NewSource(33))
	q := make([]float32, d)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	slopes := make([]float32, cfg.Heads)
	keys := make([]tensor.RowSource, cfg.Heads)
	vals := make([]tensor.RowSource, cfg.Heads)
	for h := 0; h < cfg.Heads; h++ {
		slopes[h] = cfg.AlibiSlope(h)
		keys[h], vals[h] = dec.Cache(0, h)
	}
	return model.AttendBatch{
		Layer: 0, Rows: 1, Ns: []int{dec.Len()}, Heads: cfg.Heads, HeadDim: cfg.HeadDim,
		Scale:  float32(1 / math.Sqrt(float64(cfg.HeadDim))),
		Slopes: slopes, Q: q, Out: make([]float32, d), Keys: keys, Vals: vals,
		Exec: exec.Serial{},
	}
}

// TestServingStatsDrainAllocs guards the serving engine's statistics drain:
// after every iteration a runner calls Stats and then ResetStats on its
// kernel. On top of a steady-state AttendLayer that round may allocate only
// the merged ChunkFetches copy Stats hands the caller — at most once — for
// every kernel with statistics, at executor widths 1 and 2. A reset that
// dropped the per-slot ChunkFetches backing, or a merge that grew its
// result append by append, allocated six times per round.
func TestServingStatsDrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	cfg := model.TestConfig()
	pool := exec.NewPool(2)
	defer pool.Close()
	batch := warmLayerBatch(cfg)
	for _, ex := range []exec.Executor{exec.Serial{}, pool} {
		batch.Exec = ex
		for _, name := range QuantizedDecodeKernels() {
			k := newDecodeKernel(name, cfg).(interface {
				model.Kernel
				Stats() attention.Stats
				ResetStats()
			})
			round := func() {
				k.AttendLayer(batch)
				if k.Stats().Instances != int64(cfg.Heads) {
					t.Fatalf("%s: one round should count %d instances", name, cfg.Heads)
				}
				k.ResetStats()
			}
			for i := 0; i < 3; i++ {
				round()
			}
			if allocs := testing.AllocsPerRun(100, round); allocs > 1 {
				t.Errorf("%s at width %d: AttendLayer + Stats + ResetStats allocates %g times per round (want <= 1)",
					name, ex.Width(), allocs)
			}
		}
	}
}

// TestDecodeGrowingContextAllocs is the guard the fixed-context test above
// cannot be: a decoding session's context grows by one row per step, so any
// buffer sized to exactly n reallocates on every step (the estimator's
// scratch and report slices used to — ~9 slices per head per step). Across
// 256 consecutive Decoder.Steps with the token-picker kernel, allocations
// must track the power-of-two growth of the context-sized buffers, not the
// step count.
func TestDecodeGrowingContextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	const steps = 256
	cfg := model.TestConfig()
	dec := model.NewDecoder(model.NewParams(cfg, 31), newDecodeKernel("token-picker", cfg))
	tok := func(i int) int { return (i * 13) % cfg.VocabSize }
	prompt := make([]int, 64)
	for i := range prompt {
		prompt[i] = tok(i)
	}
	dec.MustPrompt(prompt)
	dec.MustStep(tok(dec.Len())) // provision the generation kernel's slots
	start := dec.Len()
	// AllocsPerRun calls the function once to warm up and once measured;
	// both runs lengthen the context, the measured one from start+steps.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			dec.MustStep(tok(dec.Len()))
		}
	})
	// Context-sized buffers per (layer, head): K and V rows plus their
	// quantized side-cars (backing, row headers, row maxima), the estimator's
	// scratch and report, the bias. Each may double once or twice while the
	// context goes from start+steps to start+2*steps; none may grow per step.
	const perHead = 16
	budget := float64(2 * perHead * cfg.Layers * cfg.Heads)
	t.Logf("context %d -> %d: %g allocations over %d steps (budget %g)",
		start+steps, dec.Len(), allocs, steps, budget)
	if allocs > budget {
		t.Fatalf("%g allocations over %d growing-context steps: some buffer still grows every step (budget %g)",
			allocs, steps, budget)
	}
}
