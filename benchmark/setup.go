package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tokenpicker/internal/corpus"
	"tokenpicker/internal/model"
	"tokenpicker/internal/train"
)

// buildDir holds what the benchmark leaves behind in a checkout (the
// driver's build directory; .gitignore names it).
const buildDir = ".bench_build"

// sizes fixes every workload's shape. The full sizes are the benchmark; the
// toy sizes exist so the package test can run every code path in seconds.
type sizes struct {
	// decode_long / decode_short: teacher-forced library decode.
	longPrompt, longSteps, longSeqs, longCount, longRef      int
	shortPrompt, shortSteps, shortSeqs, shortCount, shortRef int
	// http_shared: sysPrompts system prompts of sysLen tokens, each request
	// one of them plus a unique suffix of sufMin..sufMax tokens.
	sysPrompts, sysLen, sufMin, sufMax int
	maxTokens                          []int // max_tokens cycle
	httpReqs, httpCount, httpWarm      int
	// burst_mixed: a wave submits waveReps requests of every shape
	// (prompt length, MaxTokens) back-to-back.
	shapes                     [][2]int
	waveReps, waves, waveCount int
	// Every checkEvery-th request of the count window is re-decoded serially
	// and compared token by token.
	checkEvery int
	// Traced-run arms: sequences per library arm, replay calls, and
	// in-process requests for the fleet comparison.
	armSeqs, replayCalls, fleetReqs int
	// A run sets up setupReps to setupRepsMax times, stopping early once
	// setupBudget has passed.
	setupReps, setupRepsMax int
	setupBudget             time.Duration
}

func fullSizes() sizes {
	return sizes{
		longPrompt: 1024, longSteps: 1024, longSeqs: 8, longCount: 3, longRef: 1,
		shortPrompt: 32, shortSteps: 160, shortSeqs: 320, shortCount: 64, shortRef: 32,
		sysPrompts: 4, sysLen: 384, sufMin: 16, sufMax: 48,
		maxTokens: []int{16, 32, 64},
		httpReqs:  1000, httpCount: 192, httpWarm: 8,
		shapes:   [][2]int{{64, 128}, {128, 64}, {256, 32}, {512, 16}},
		waveReps: 4, waves: 28, waveCount: 3,
		checkEvery: 8,
		armSeqs:    1, replayCalls: 200, fleetReqs: 96,
		setupReps: 3, setupRepsMax: 9, setupBudget: 3 * time.Second,
	}
}

func toySizes() sizes {
	return sizes{
		longPrompt: 96, longSteps: 48, longSeqs: 3, longCount: 2, longRef: 1,
		shortPrompt: 8, shortSteps: 16, shortSeqs: 8, shortCount: 4, shortRef: 2,
		sysPrompts: 2, sysLen: 64, sufMin: 4, sufMax: 8,
		maxTokens: []int{4, 8},
		httpReqs:  24, httpCount: 8, httpWarm: 2,
		shapes:   [][2]int{{16, 8}, {40, 4}},
		waveReps: 2, waves: 3, waveCount: 2,
		checkEvery: 4,
		armSeqs:    1, replayCalls: 8, fleetReqs: 8,
		setupReps: 2, setupRepsMax: 2,
	}
}

// env is what one workload run needs: the weights on disk (every set-up
// repetition loads them again), the seed, the load size and the sizes.
type env struct {
	weights string // file written by Params.WriteTo
	corpus  corpus.Config
	skip    int // corpus tokens covering the training span
	seed    int64
	c       int // generator goroutines / connections: min(nproc, 4)
	sz      sizes
	outDir  string // trace files; "" = do not write
}

// loadSize is C: no workload drives more than this many concurrent callers.
func loadSize() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// loadParams reads the weights file; it is part of every set-up.
func (e *env) loadParams() (*model.Params, error) {
	f, err := os.Open(e.weights)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return model.ReadParams(f)
}

// text returns m held-out, in-distribution tokens for the seed: the corpus
// stream past the training span, offset by the seed, plus a rand source for
// the workload's own choices. The stream position wraps at 256 seeds so a
// large seed does not spend seconds discarding tokens; the rand source does
// not wrap.
func (e *env) text(m int) ([]int, *rand.Rand) {
	g := corpus.NewGenerator(e.corpus)
	g.Tokens(e.skip + 4096*int(uint64(e.seed)%256))
	return g.Tokens(m), rand.New(rand.NewSource(e.seed))
}

// standIn is the model every workload runs: standin-OPT-6.7B.
func standIn() model.Config { return model.Family()[4].StandIn }

// trainWeights trains the stand-in with the repo's default options and
// writes the weights to path atomically.
func trainWeights(path string) error {
	r := train.Get(standIn(), train.DefaultOptions())
	return writeWeights(r.Params, path)
}

func writeWeights(p *model.Params, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "weights-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	w := bufio.NewWriter(tmp)
	if _, err = p.WriteTo(w); err == nil {
		err = w.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing weights: %w", err)
	}
	return os.Rename(tmp.Name(), path)
}

// ensureWeights returns the path of the trained stand-in's weights, training
// them on first use in this checkout. Training runs in a child process so
// its memory does not count towards the workload's peak RSS, and the file is
// keyed by a hash of this executable so a rebuilt program never loads
// weights an older one trained.
func ensureWeights() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return "", err
	}
	path := filepath.Join(buildDir, "weights-"+hex.EncodeToString(h.Sum(nil))[:16]+".bin")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	cmd := exec.Command(exe, "-train", path)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("training child: %w", err)
	}
	return path, nil
}

// fullEnv is the benchmark's environment for one seed.
func fullEnv(seed int64) (*env, error) {
	w, err := ensureWeights()
	if err != nil {
		return nil, err
	}
	opts := train.DefaultOptions()
	return &env{
		weights: w,
		corpus:  corpus.DefaultConfig(opts.CorpusSeed),
		skip:    opts.Steps*opts.Batch*opts.SeqLen + 4096,
		seed:    seed,
		c:       loadSize(),
		sz:      fullSizes(),
		outDir:  filepath.Join("benchmark", "out"),
	}, nil
}

// peakRSSMB is this process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64) // malformed reads as 0, which the run reports as a failure
				return kb / 1024
			}
		}
	}
	return 0
}
