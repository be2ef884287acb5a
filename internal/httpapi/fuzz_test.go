package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"unicode/utf8"

	"tokenpicker/internal/model"
	"tokenpicker/internal/serve"
)

// FuzzCompletionRequest drives arbitrary bodies through the completion
// endpoint's lowering: JSON decode, toGenerateRequest, Validate. Nothing may
// panic, and a request Validate accepts must pass through admission's
// vocabulary check: Submit admits it or rejects it with ErrBadToken. The
// context is canceled up front, so an admitted session finishes canceled at
// its first iteration without decoding. The corpus is testdata/fuzz.
func FuzzCompletionRequest(f *testing.F) {
	cfg := model.TestConfig()
	cfg.MaxSeq = 64 // so a prompt past the context window stays a short input
	srv := serve.NewServer(model.NewParams(cfg, 1), serve.Config{Workers: 1, BlockRows: 8})
	f.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body []byte) {
		var cr completionRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&cr) != nil {
			return
		}
		req, err := cr.toGenerateRequest()
		if err != nil || req.Validate() != nil {
			return
		}
		if len(req.Sampling.LogitBias) != len(cr.LogitBias) {
			t.Fatalf("logit_bias keys %v lowered onto %d token ids: two keys name one token", cr.LogitBias, len(req.Sampling.LogitBias))
		}
		st, err := srv.Submit(ctx, req)
		if err != nil {
			if !errors.Is(err, serve.ErrBadToken) {
				t.Fatalf("a validated request was refused by something other than the vocabulary check: %v", err)
			}
			return
		}
		for range st.Events() {
			t.Fatal("a canceled session emitted a token")
		}
		if res := st.Result(); res.Reason != serve.ReasonCanceled {
			t.Fatalf("canceled session finished %q (%v)", res.Reason, res.Err)
		}
	})
}

// FuzzRequestID checks clipRequestID, the X-Request-ID bound: the result
// is at most maxRequestIDLen bytes, a prefix of the input, valid UTF-8
// whenever the input is, and empty only when the input is. The corpus is
// testdata/fuzz.
func FuzzRequestID(f *testing.F) {
	f.Fuzz(func(t *testing.T, id string) {
		got := clipRequestID(id)
		if len(got) > maxRequestIDLen {
			t.Fatalf("clipped to %d bytes, bound %d", len(got), maxRequestIDLen)
		}
		if !strings.HasPrefix(id, got) {
			t.Fatalf("%q is not a prefix of %q", got, id)
		}
		if utf8.ValidString(id) && !utf8.ValidString(got) {
			t.Fatalf("valid id %q clipped to invalid UTF-8 %q", id, got)
		}
		if (got == "") != (id == "") {
			t.Fatalf("id %q clipped to %q", id, got)
		}
	})
}
