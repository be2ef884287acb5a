package main

import (
	"time"

	"tokenpicker/internal/core"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/model"
	"tokenpicker/internal/sample"
	"tokenpicker/internal/sim/arch"
	"tokenpicker/internal/tensor"
)

// captureSteps is how many final steps of the arm sequence are captured: with
// the stand-in's 2 layers x 4 heads, 4 steps give the 32 instances the
// simulator and the estimator replay run on. The attention time those
// replays are compared with is taken over the last finalSteps steps.
const (
	captureSteps = 4
	finalSteps   = 32
)

// decodeArm runs seqs through a library decoder (exact Prompt, then steps
// teacher-forced Step calls through kern) and returns Step calls per second
// of Step time. The decoder is returned holding the last sequence, for
// replays on its real state; the caller releases it. When kern is a
// timedKernel carrying a capture, the last captureSteps steps of the last
// sequence are captured and the attention time of one final-context step is
// returned.
func decodeArm(p *model.Params, kern model.Kernel, ex exec.Executor, seqs [][]int, prompt, steps int) (tokS float64, dec *model.Decoder, logits []float32, finalNS float64, err error) {
	tk, _ := kern.(*timedKernel)
	dec = model.NewDecoder(p, kern)
	dec.Exec = ex
	var total time.Duration
	for s, seq := range seqs {
		dec.Reset()
		if logits, err = dec.Prompt(seq[:prompt]); err != nil {
			return 0, dec, nil, 0, err
		}
		for i := 0; i < steps; i++ {
			if tk != nil && s == len(seqs)-1 {
				if i == max(0, steps-finalSteps) {
					finalNS = -float64(tk.ns.Load())
				}
				tk.cap.armed = i >= steps-captureSteps
			}
			t0 := time.Now()
			logits, err = dec.Step(seq[prompt+i])
			total += time.Since(t0)
			if err != nil {
				return 0, dec, nil, 0, err
			}
		}
	}
	if tk != nil {
		tk.cap.armed = false
		finalNS = (finalNS + float64(tk.ns.Load())) / float64(min(steps, finalSteps))
	}
	return float64(len(seqs)*steps) / total.Seconds(), dec, logits, finalNS, nil
}

// timeCalls runs fn n times, records one span per call and returns the
// durations in nanoseconds.
func timeCalls(rec *recorder, name string, n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		rec.add(name, 0, 0, t0, d)
		out[i] = float64(d)
	}
	return out
}

// libraryArms measures single layers from outside on a library decoder that
// runs sequences shaped like the workload's requests: the same steps with
// the exact kernel, with a head-parallel executor and as rows of a batched
// step, then direct calls into each layer's public functions on the
// decoder's real final state (≥ replayCalls calls each, medians), and the
// accelerator model on the captured instances.
func libraryArms(e *env, p *model.Params, w workload, rec *recorder, out *result) {
	prompt, steps, seqs := w.profile()
	arm := seqs[:min(e.sz.armSeqs, len(seqs))]
	cfg := p.Cfg
	nSteps := len(arm) * steps

	cp := &capture{}
	tk := &timedKernel{inner: newGenKernel(), cap: cp}
	serial, dec, logits, finalNS, err := decodeArm(p, tk, nil, arm, prompt, steps)
	if err != nil {
		out.fail("library arm: %v", err)
		return
	}
	defer dec.Release()
	if len(cp.insts) == 0 {
		out.fail("library arm captured no attention instances")
		return
	}

	// attention: the same steps with exact float attention.
	exact, xdec, _, _, err := decodeArm(p, &model.ExactKernel{}, nil, arm, prompt, steps)
	xdec.Release()
	if err != nil {
		out.fail("exact arm: %v", err)
		return
	}
	out.set("attention.topick_vs_exact_x", ratio(serial, exact), "x", nSteps)

	// exec: the same steps with the heads of a layer spread over C slots.
	ex := exec.New(e.c)
	pool, pdec, _, _, err := decodeArm(p, newGenKernel(), ex, arm, prompt, steps)
	pdec.Release()
	st := exec.StatsOf(ex)
	ex.Close()
	if err != nil {
		out.fail("pool arm: %v", err)
		return
	}
	out.set("exec.pool_speedup_x", ratio(pool, serial), "x", nSteps)
	out.set("exec.steal_ratio", ratio(float64(st.Steals), float64(st.Tasks)), "share", int(st.Tasks))

	// model: C sequences advanced as the rows of one BatchEngine step.
	if rowS, err := batchArm(p, seqs, e.c, prompt, steps); err != nil {
		out.fail("batch arm: %v", err)
	} else {
		out.set("model.batch_row_vs_step_x", rowS*serial, "x", e.c*steps)
	}

	// tensor: the MatVec calls one step makes.
	d, f := cfg.DModel(), cfg.FFNDim()
	x, y, h := p.TokEmb.Row(1), make([]float32, d), make([]float32, f)
	lg := make([]float32, cfg.VocabSize)
	mv := timeCalls(rec, "tensor.matvec_set", e.sz.replayCalls, func() {
		for _, b := range p.Blocks {
			tensor.MatVec(y, b.Wq, x)
			tensor.MatVec(y, b.Wk, x)
			tensor.MatVec(y, b.Wv, x)
			tensor.MatVec(y, b.Wo, x)
			tensor.MatVec(h, b.W1, x)
			tensor.MatVec(y, b.W2, h)
		}
		tensor.MatVec(lg, p.TokEmb, x)
	})
	flops := float64(2 * (cfg.Layers*(4*d*d+2*d*f) + cfg.VocabSize*d))
	out.set("tensor.matvec_set_us", median(mv)/1e3, "us", len(mv))
	out.set("tensor.matvec_gflops", flops/median(mv), "GFLOP/s", len(mv))

	// fixed: the quantized side-car of one head's K (chunk planes) and V
	// (rows only), appended to one row at a time and rebuilt cold.
	keys, vals := dec.Cache(0, 0)
	n, dim, cs := dec.Len(), cfg.HeadDim, fixed.DefaultChunkSpec
	calls := min(e.sz.replayCalls, n-1)
	var kq, vq fixed.QuantCache
	kq.SyncChunked(keys, n-calls, dim, cs)
	vq.Sync(vals, n-calls, dim, cs.TotalBits)
	row := n - calls
	kApp := timeCalls(rec, "fixed.sync_chunked", calls, func() { row++; kq.SyncChunked(keys, row, dim, cs) })
	row = n - calls
	vApp := timeCalls(nil, "", calls, func() { row++; vq.Sync(vals, row, dim, cs.TotalBits) })
	build := timeCalls(rec, "fixed.sync_chunked", e.sz.replayCalls, func() { kq.Invalidate(); kq.SyncChunked(keys, n, dim, cs) })
	out.set("fixed.sync_append_ns_per_row", median(kApp), "ns", len(kApp))
	out.set("fixed.sync_build_ns_per_row", median(build)/float64(n), "ns", len(build))

	// core: the estimator on the captured instances, then (harness copy of
	// the kernel's loop, for coverage only) the weighted sum over kept V rows.
	est := core.MustNewEstimator(core.DefaultConfig(threshold))
	var rep core.Report
	acc := make([]float32, dim)
	var estNS, accNS []float64
	for len(estNS) < e.sz.replayCalls {
		for i := range cp.insts {
			in := &cp.insts[i]
			estNS = append(estNS, timeCalls(rec, "core.estimator_run", 1, func() { est.RunInto(&rep, in.sim.In) })...)
			accNS = append(accNS, timeCalls(nil, "", 1, func() {
				for _, t := range rep.Kept {
					pr, v := float32(rep.Prob(t)), in.vRows[t]
					for j := range acc {
						acc[j] += pr * float32(in.vScale*float64(v[j]))
					}
				}
			})...)
		}
	}
	out.set("core.estimator_us_per_instance", median(estNS)/1e3, "us", len(estNS))
	perInstance := finalNS / float64(cfg.Layers*cfg.Heads)
	out.set("attention.replay_coverage", ratio(median(kApp)+median(vApp)+median(estNS)+median(accNS), perInstance), "share", len(cp.insts))

	// sample: one draw from the final logits.
	hist := arm[len(arm)-1][:prompt+steps]
	greedy := sample.MustNew(sample.Config{})
	topk := sample.MustNew(sample.Config{Temperature: 1, TopK: 40, TopP: 0.9, Seed: e.seed + 1})
	g := timeCalls(rec, "sample.sample", e.sz.replayCalls, func() { greedy.Sample(logits, hist) })
	t := timeCalls(rec, "sample.sample", e.sz.replayCalls, func() { topk.Sample(logits, hist) })
	out.set("sample.us_per_token", median(g)/1e3, "us", len(g))
	out.set("sample.topk_us_per_token", median(t)/1e3, "us", len(t))

	// sim: the accelerator model on the captured instances. Simulated time
	// except host_us_per_instance; the model is unvalidated against hardware.
	var res [2]arch.Result
	var host []float64
	for m, mode := range []arch.Mode{arch.ModeBaseline, arch.ModeToPick} {
		s := arch.MustNew(arch.DefaultConfig(mode, threshold))
		for i := range cp.insts {
			host = append(host, timeCalls(nil, "", 1, func() { res[m].Accumulate(s.RunInstance(cp.insts[i].sim)) })...)
		}
	}
	out.set("sim.speedup_x", ratio(float64(res[0].Cycles), float64(res[1].Cycles)), "x", len(cp.insts))
	out.set("sim.energy_x", ratio(res[0].Energy.Total(), res[1].Energy.Total()), "x", len(cp.insts))
	out.set("sim.dram_bytes_reduction_x", ratio(float64(res[0].DRAM.Bytes), float64(res[1].DRAM.Bytes)), "x", len(cp.insts))
	out.set("sim.host_us_per_instance", median(host)/1e3, "us", len(host))
}

// batchArm advances c decoders in lockstep as the rows of BatchEngine.Step
// calls and returns the seconds one row takes.
func batchArm(p *model.Params, seqs [][]int, c, prompt, steps int) (float64, error) {
	eng := model.NewBatchEngine(p)
	kern := newGenKernel()
	entries := make([]model.BatchEntry, c)
	toks := make([][1]int, c)
	for i := range entries {
		dec := model.NewDecoder(p, nil)
		defer dec.Release()
		if _, err := dec.Prompt(seqs[i%len(seqs)][:prompt]); err != nil {
			return 0, err
		}
		entries[i].Dec = dec
	}
	var total time.Duration
	for s := 0; s < steps; s++ {
		for i := range entries {
			toks[i][0] = seqs[i%len(seqs)][prompt+s]
			entries[i] = model.BatchEntry{Dec: entries[i].Dec, Tokens: toks[i][:], NeedLogits: true}
		}
		t0 := time.Now()
		eng.Step(entries, kern, nil)
		total += time.Since(t0)
		for i := range entries {
			if entries[i].Err != nil {
				return 0, entries[i].Err
			}
		}
	}
	return total.Seconds() / float64(c*steps), nil
}
