package attention

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"tokenpicker/internal/model"
	"tokenpicker/internal/tensor"
)

// goldenKernelHash runs a fixed-seed, untrained stand-in decoder with kernel
// over a 300-token prompt (exact prefill) and greedy-decodes 24 steps through
// kernel (contexts 300..323, 8 instances a step), and returns the FNV-64a of
// every logit bit.
func goldenKernelHash(kernel model.Kernel) uint64 {
	cfg := model.Family()[4].StandIn
	dec := model.NewDecoder(model.NewParams(cfg, 24), kernel)
	prompt := make([]int, 300)
	for i := range prompt {
		prompt[i] = (7*31 + i*13) % cfg.VocabSize
	}
	h := fnv.New64a()
	fold := func(logits []float32) {
		var buf [4]byte
		for _, v := range logits {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	logits := dec.MustPrompt(prompt)
	fold(logits)
	for s := 0; s < 24; s++ {
		logits = dec.MustStep(tensor.Argmax(logits))
		fold(logits)
	}
	return h.Sum64()
}

// TestGoldenTokenPickerLogitsBitIdentical pins the paper's kernel end to end:
// the estimator's wave schedule (four keys per pass, ln D evaluated only when
// it decides), the prune decisions and the kept-V sum. The hash was recorded
// with the one-key-per-pass, eager-ln D estimator (d344a28). At these
// contexts every wave holds far more than four keys and ln D is re-anchored
// several times per instance. amd64 only, like TestGoldenLogitsBitIdentical.
func TestGoldenTokenPickerLogitsBitIdentical(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64; other targets may fuse multiply-adds")
	}
	const want = 0x5b647cf428d92185
	if got := goldenKernelHash(NewTokenPicker(1e-3)); got != want {
		t.Fatalf("token-picker logits hash %#x, want %#x: a prune decision or a kept score moved", got, uint64(want))
	}
}

// TestGoldenQuantizedLogitsBitIdentical pins the two full-scoring quantized
// kernels the same way: QuantizedExact (the ppl_ratio reference) and Oracle
// score every key through the shared integer dot, so a change to it that
// moves one score moves their hashes.
func TestGoldenQuantizedLogitsBitIdentical(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64; other targets may fuse multiply-adds")
	}
	for _, c := range []struct {
		name   string
		kernel model.Kernel
		want   uint64
	}{
		{"quantized-exact", NewQuantizedExact(), 0x15cf236ec8aec5fe},
		{"oracle", NewOracle(1e-3), 0x8dd93ee11a080bb8},
	} {
		if got := goldenKernelHash(c.kernel); got != c.want {
			t.Errorf("%s logits hash %#x, want %#x: a quantized score moved", c.name, got, c.want)
		}
	}
}

// TestGoldenSpAttenLogitsBitIdentical pins the Fig. 9 baseline the same way:
// the cascade's active sets, its own score and V loops, and the post-batch
// importance merge. The hash was recorded at b8fda34, before SpAtten moved
// onto the shared slot base.
func TestGoldenSpAttenLogitsBitIdentical(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64; other targets may fuse multiply-adds")
	}
	const want = 0x78ca791397f3279a
	cfg := model.Family()[4].StandIn
	k := NewSpAtten(SpAttenConfig{
		KeepRatio: 0.5, MinKeep: 4,
		Layers: cfg.Layers, Heads: cfg.Heads,
		Cascade: true, Bits: 12,
	})
	if got := goldenKernelHash(k); got != want {
		t.Fatalf("spatten logits hash %#x, want %#x: an active set or a kept score moved", got, uint64(want))
	}
}
