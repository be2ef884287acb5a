// Command topick-gen generates token streams from the demo model with the
// chosen attention kernel and reports the pruning statistics of the run —
// a minimal end-to-end demonstration that pruned attention still produces
// the model's distribution.
//
// Usage:
//
//	topick-gen -tokens 128 -threshold 1e-3 -kernel topick
package main

import (
	"flag"
	"fmt"
	"log"

	"tokenpicker"
)

func main() {
	var (
		nTokens   = flag.Int("tokens", 96, "tokens to generate")
		threshold = flag.Float64("threshold", 1e-3, "pruning threshold")
		kernel    = flag.String("kernel", "topick", "attention kernel: topick|exact")
		promptLen = flag.Int("prompt", 64, "prompt length from the held-out corpus")
		temp      = flag.Float64("temperature", 0.8, "sampling temperature (0 = greedy)")
		seed      = flag.Int64("seed", 7, "sampling seed (with -temperature > 0)")
		topK      = flag.Int("top-k", 0, "keep only the K most likely tokens (0 = off)")
		topP      = flag.Float64("top-p", 0, "nucleus sampling mass (0 = off)")
		specK     = flag.Int("speculate-k", 0, "speculative decoding draft window: verify up to K prompt-lookup draft tokens per pass (0 = off; output is bit-identical either way)")
	)
	flag.Parse()

	res := tokenpicker.TrainDemoModel()
	var k tokenpicker.Kernel
	var tp *tokenpicker.TokenPickerKernel
	switch *kernel {
	case "topick":
		tp = tokenpicker.NewKernel(*threshold)
		k = tp
	case "exact":
		k = tokenpicker.NewExactKernel()
	default:
		log.Fatalf("unknown kernel %q", *kernel)
	}

	dec := tokenpicker.NewDecoder(res.Params, k)
	prompt := res.Held[:*promptLen]
	logits, err := dec.Prompt(prompt)
	if err != nil {
		log.Fatalf("prompt: %v", err)
	}

	// The same composable sampler chain the serving engine runs; its
	// typed validation rejects contradictory flag combinations (e.g.
	// -temperature 0 with -seed).
	cfg := tokenpicker.SamplingConfig{Temperature: *temp, TopK: *topK, TopP: *topP, Seed: *seed}
	if *temp == 0 {
		// The seed default only exists for the sampling path; forward it to
		// greedy validation only when the user explicitly asked for it, so
		// `-temperature 0` alone works while `-temperature 0 -seed 9` gets
		// the typed contradiction error.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["seed"] {
			cfg.Seed = 0
		}
	}
	sampler, err := tokenpicker.NewSampler(cfg)
	if err != nil {
		log.Fatalf("sampling config: %v", err)
	}
	history := append([]int(nil), prompt...)
	fmt.Printf("prompt tokens: %v\n", prompt[len(prompt)-16:])
	fmt.Printf("generated    : ")
	tok := sampler.Sample(logits, history)
	if *specK > 0 {
		speculate(res, dec, k, sampler, &history, tok, *nTokens, *specK)
	} else {
		for i := 0; i < *nTokens; i++ {
			fmt.Printf("%d ", tok)
			history = append(history, tok)
			logits, err = dec.Step(tok)
			if err != nil {
				// ErrContextFull: the window is exhausted; stop cleanly.
				fmt.Printf("\n(stopped early: %v)", err)
				break
			}
			tok = sampler.Sample(logits, history)
		}
		fmt.Println()
	}

	if tp != nil {
		st := tp.Stats()
		fmt.Printf("\ngeneration-phase transfer statistics (threshold %g):\n", *threshold)
		fmt.Printf("  attention instances : %d\n", st.Instances)
		fmt.Printf("  context tokens      : %d\n", st.Tokens)
		fmt.Printf("  V fetched (kept)    : %d  => pruning ratio %.1fx\n", st.Kept, st.PruningRatio())
		fmt.Printf("  K bytes             : %d of %d  => reduction %.2fx\n", st.KBytes, st.BaselineKBytes, st.KReduction())
		fmt.Printf("  K+V total reduction : %.2fx\n", st.TotalReduction())
		fmt.Printf("  chunk fetches       : %v\n", st.ChunkFetches)
	}
}

// genEmitter adapts the CLI's print-and-append loop to the speculative
// decoder's per-token callback; the sampler consumes RNG once per emitted
// token, exactly as the plain loop does, so the stream is bit-identical.
type genEmitter struct {
	sampler *tokenpicker.SamplerChain
	history *[]int
	limit   int // total tokens to print (including the first, pre-spec one)
	printed int
}

func (e *genEmitter) Emit(logits []float32) (int, bool) {
	tok := e.sampler.Sample(logits, *e.history)
	fmt.Printf("%d ", tok)
	*e.history = append(*e.history, tok)
	e.printed++
	return tok, e.printed >= e.limit
}

// speculate drives draft-and-verify generation: each pass advances the
// pending token plus up to specK prompt-lookup draft tokens through one
// batched engine step and keeps the longest accepted prefix. first is the
// token already sampled from the prompt logits.
func speculate(res *tokenpicker.TrainResult, dec *tokenpicker.Decoder, k tokenpicker.Kernel,
	sampler *tokenpicker.SamplerChain, history *[]int, first, nTokens, specK int) {
	sd := tokenpicker.NewSpecDecoder(dec, &tokenpicker.NgramDraft{}, specK)
	eng := tokenpicker.NewBatchEngine(res.Params)
	em := &genEmitter{sampler: sampler, history: history, limit: nTokens}

	fmt.Printf("%d ", first)
	*history = append(*history, first)
	em.printed = 1
	for em.printed < nTokens {
		if _, err := sd.Step(eng, k, nil, *history, nTokens-em.printed-1, em); err != nil {
			// ErrContextFull: the window is exhausted; stop cleanly.
			fmt.Printf("\n(stopped early: %v)", err)
			break
		}
	}
	fmt.Println()
	st := sd.Stats()
	fmt.Printf("\nspeculation (k=%d): %d drafted, %d accepted (%.0f%% acceptance), %d verify passes\n",
		specK, st.Drafted, st.Accepted, 100*st.AcceptanceRate(), st.Passes)
}
