package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/tensor"
	"tokenpicker/internal/train"
)

// newTestServer boots an engine plus front-end over the demo model.
func newTestServer(t *testing.T) (*train.Result, *serve.Server, *httptest.Server) {
	t.Helper()
	r := train.TestModel()
	engine := serve.NewServer(r.Params, serve.Config{
		Workers:   2,
		BlockRows: 16,
		NewKernel: func() model.Kernel { return attention.NewTokenPicker(1e-3) },
	})
	ts := httptest.NewServer(New(engine, Options{Model: "topick-test"}))
	t.Cleanup(func() {
		ts.Close()
		engine.Close()
	})
	return r, engine, ts
}

// decodeGreedy is the single-tenant reference the HTTP path must match.
func decodeGreedy(t *testing.T, params *model.Params, prompt []int, maxNew int) []int {
	t.Helper()
	dec := model.NewDecoder(params, attention.NewTokenPicker(1e-3))
	logits, err := dec.Prompt(prompt)
	if err != nil {
		t.Fatalf("reference prompt: %v", err)
	}
	out := []int{tensor.Argmax(logits)}
	for len(out) < maxNew {
		logits, err = dec.Step(out[len(out)-1])
		if err != nil {
			t.Fatalf("reference step: %v", err)
		}
		out = append(out, tensor.Argmax(logits))
	}
	return out
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/completions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	return resp
}

func TestBlockingCompletionMatchesSerialGreedy(t *testing.T) {
	r, _, ts := newTestServer(t)
	prompt := r.Held[:24]
	const maxNew = 12

	pj, _ := json.Marshal(prompt)
	resp := postJSON(t, ts.URL, fmt.Sprintf(`{"prompt": %s, "max_tokens": %d}`, pj, maxNew))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cr completionResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if cr.Object != "text_completion" || cr.Model != "topick-test" || cr.ID == "" {
		t.Fatalf("bad envelope: %+v", cr)
	}
	if len(cr.Choices) != 1 {
		t.Fatalf("choices: %+v", cr.Choices)
	}
	want := decodeGreedy(t, r.Params, prompt, maxNew)
	got := cr.Choices[0].Tokens
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: HTTP %d != serial %d", i, got[i], want[i])
		}
	}
	if cr.Choices[0].FinishReason != "length" {
		t.Fatalf("finish_reason %q, want length", cr.Choices[0].FinishReason)
	}
	u := cr.Usage
	if u == nil || u.PromptTokens != len(prompt) || u.CompletionTokens != maxNew ||
		u.TotalTokens != len(prompt)+maxNew {
		t.Fatalf("usage %+v", u)
	}
}

func TestSSECompletionStreamsAndTerminates(t *testing.T) {
	r, _, ts := newTestServer(t)
	prompt := r.Held[:20]
	const maxNew = 8

	pj, _ := json.Marshal(prompt)
	resp := postJSON(t, ts.URL, fmt.Sprintf(`{"prompt": %s, "max_tokens": %d, "stream": true}`, pj, maxNew))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var toks []int
	var finish string
	var sawUsage, sawDone bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("non-SSE line %q", line)
		}
		if payload == "[DONE]" {
			sawDone = true
			continue
		}
		if sawDone {
			t.Fatalf("data after [DONE]: %q", payload)
		}
		var chunk completionResponse
		if err := json.Unmarshal([]byte(payload), &chunk); err != nil {
			t.Fatalf("chunk %q: %v", payload, err)
		}
		if len(chunk.Choices) != 1 {
			t.Fatalf("chunk choices: %+v", chunk.Choices)
		}
		c := chunk.Choices[0]
		if c.FinishReason != "" {
			finish = c.FinishReason
			if chunk.Usage == nil || chunk.Usage.CompletionTokens != maxNew {
				t.Fatalf("final chunk usage %+v", chunk.Usage)
			}
			sawUsage = true
			continue
		}
		if len(c.Tokens) != 1 {
			t.Fatalf("mid-stream chunk carries %d tokens", len(c.Tokens))
		}
		toks = append(toks, c.Tokens[0])
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !sawDone || !sawUsage || finish != "length" {
		t.Fatalf("done=%v usage=%v finish=%q", sawDone, sawUsage, finish)
	}
	want := decodeGreedy(t, r.Params, prompt, maxNew)
	if len(toks) != len(want) {
		t.Fatalf("streamed %d tokens, want %d", len(toks), len(want))
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("token %d: SSE %d != serial %d", i, toks[i], want[i])
		}
	}
}

func TestStopSequenceOverHTTP(t *testing.T) {
	r, _, ts := newTestServer(t)
	prompt := r.Held[:24]
	const maxNew = 12
	want := decodeGreedy(t, r.Params, prompt, maxNew)
	// Stop on the 3rd+4th greedy tokens: generation must end right there.
	stop := want[2:4]

	pj, _ := json.Marshal(prompt)
	sj, _ := json.Marshal([][]int{stop})
	resp := postJSON(t, ts.URL, fmt.Sprintf(
		`{"prompt": %s, "max_tokens": %d, "stop": %s}`, pj, maxNew, sj))
	defer resp.Body.Close()
	var cr completionResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	c := cr.Choices[0]
	if c.FinishReason != "stop" {
		t.Fatalf("finish_reason %q, want stop (%+v)", c.FinishReason, cr)
	}
	if c.StopSeq == nil || *c.StopSeq != 0 {
		t.Fatalf("stop_seq %v, want 0", c.StopSeq)
	}
	if len(c.Tokens) != 4 {
		t.Fatalf("stopped after %d tokens, want 4 (match completes at index 3)", len(c.Tokens))
	}
}

func TestValidationErrorsMapTo400(t *testing.T) {
	_, _, ts := newTestServer(t)
	cases := []struct {
		name, body, field string
	}{
		{"empty prompt", `{"prompt": [], "max_tokens": 4}`, "prompt"},
		{"negative temperature", `{"prompt": [1,2], "temperature": -1}`, "sampling.temperature"},
		{"greedy with seed", `{"prompt": [1,2], "seed": 7}`, "sampling.seed"},
		{"out of vocab", `{"prompt": [1, 1000000]}`, "prompt"},
		{"empty stop seq", `{"prompt": [1,2], "stop": [[]]}`, "stop"},
		{"bad bias key", `{"prompt": [1,2], "temperature": 1, "logit_bias": {"x": 1}}`, "logit_bias"},
		{"bias key spelled two ways", `{"prompt": [1,2], "temperature": 1, "logit_bias": {"1": 5, "01": -5}}`, "logit_bias"},
		{"non-canonical bias key", `{"prompt": [1,2], "temperature": 1, "logit_bias": {"+1": 5}}`, "logit_bias"},
		{"malformed json", `{"prompt": [1,2]`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e apiError
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("decode error body: %v", err)
			}
			if e.Error.Type != "invalid_request_error" || e.Error.Message == "" {
				t.Fatalf("error body %+v", e)
			}
			if tc.field != "" && e.Error.Field != tc.field {
				t.Fatalf("error field %q, want %q (%+v)", e.Error.Field, tc.field, e)
			}
		})
	}
}

// TestOpenAIClientShapeAccepted sends the extra fields stock OpenAI SDKs
// always include ("model", "n", "user", ...): they must be ignored, not
// rejected as unknown.
func TestOpenAIClientShapeAccepted(t *testing.T) {
	r, _, ts := newTestServer(t)
	pj, _ := json.Marshal(r.Held[:8])
	resp := postJSON(t, ts.URL, fmt.Sprintf(
		`{"model": "topick", "prompt": %s, "max_tokens": 4, "n": 1, "user": "sdk", "stream_options": {"include_usage": true}}`, pj))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 for an OpenAI-SDK-shaped request", resp.StatusCode)
	}
	var cr completionResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(cr.Choices) != 1 || len(cr.Choices[0].Tokens) != 4 {
		t.Fatalf("choices %+v", cr.Choices)
	}
}

// TestMidFlightRejectionMapsTo503 drives a session that is admitted but
// cannot run (one-block pool, preemption disabled): a capacity failure
// must surface as 5xx, never as an empty 200 "completion".
func TestMidFlightRejectionMapsTo503(t *testing.T) {
	r := train.TestModel()
	engine := serve.NewServer(r.Params, serve.Config{
		Workers: 1, BlockRows: 8, MaxBlocks: 1, MaxPreempts: -1,
	})
	ts := httptest.NewServer(New(engine, Options{}))
	t.Cleanup(func() {
		ts.Close()
		engine.Close()
	})
	resp := postJSON(t, ts.URL, `{"prompt": [1,2,3], "max_tokens": 4}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if e.Error.Type != "server_error" || e.Error.Message == "" {
		t.Fatalf("error body %+v", e)
	}
}

func TestStatsEndpoint(t *testing.T) {
	r, _, ts := newTestServer(t)
	pj, _ := json.Marshal(r.Held[:16])
	resp := postJSON(t, ts.URL, fmt.Sprintf(`{"prompt": %s, "max_tokens": 4}`, pj))
	resp.Body.Close()

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var buf bytes.Buffer
	var sr statsResponse
	if err := json.NewDecoder(io.TeeReader(sresp.Body, &buf)).Decode(&sr); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if sr.APIVersion != serve.APIVersion || sr.Model != "topick-test" {
		t.Fatalf("stats envelope: %s", buf.String())
	}
	if sr.Report.Admitted < 1 || sr.Report.GenTokens < 1 {
		t.Fatalf("report did not count the completion: %s", buf.String())
	}
	if sr.Report.Pool.Leases == 0 {
		t.Fatalf("pool stats missing: %s", buf.String())
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hresp.StatusCode)
	}
}
