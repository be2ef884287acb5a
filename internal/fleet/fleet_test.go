package fleet

import (
	"context"
	"errors"
	"testing"
	"time"

	"tokenpicker/internal/obs"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/train"
)

func TestRoutePick(t *testing.T) {
	const perMax = 64

	t.Run("deterministic", func(t *testing.T) {
		loads := []int{3, 1, 2, 0}
		i1, d1 := routePick(42, 2, loads, 8, perMax)
		i2, d2 := routePick(42, 2, loads, 8, perMax)
		if i1 != i2 || d1 != d2 {
			t.Fatalf("same inputs routed differently: (%d,%d) vs (%d,%d)", i1, d1, i2, d2)
		}
	})

	t.Run("affinity ignores load churn", func(t *testing.T) {
		// The rendezvous winner must not move when other replicas' loads do.
		idx, dec := routePick(0xdeadbeef, 3, []int{0, 0, 0, 0}, 8, perMax)
		if dec != decisionAffinity {
			t.Fatalf("unloaded fleet: decision %d, want affinity", dec)
		}
		loads := []int{5, 5, 5, 5}
		loads[(idx+1)%4] = 0 // someone else drains completely
		idx2, dec2 := routePick(0xdeadbeef, 3, loads, 8, perMax)
		if idx2 != idx || dec2 != decisionAffinity {
			t.Fatalf("winner moved under churn: %d→%d (decision %d)", idx, idx2, dec2)
		}
	})

	t.Run("keys spread across replicas", func(t *testing.T) {
		loads := []int{0, 0, 0, 0}
		seen := map[int]bool{}
		for key := uint64(1); key <= 64; key++ {
			idx, _ := routePick(key, 1, loads, 8, perMax)
			seen[idx] = true
		}
		if len(seen) != 4 {
			t.Fatalf("64 keys landed on only %d of 4 replicas", len(seen))
		}
	})

	t.Run("no key balances to least loaded", func(t *testing.T) {
		idx, dec := routePick(0, 0, []int{4, 2, 7}, 8, perMax)
		if idx != 1 || dec != decisionBalance {
			t.Fatalf("got (%d,%d), want (1,balance)", idx, dec)
		}
	})

	t.Run("load ties keep lowest index", func(t *testing.T) {
		idx, _ := routePick(0, 0, []int{3, 3, 3}, 8, perMax)
		if idx != 0 {
			t.Fatalf("tie broke to %d, want 0", idx)
		}
	})

	t.Run("spills at margin", func(t *testing.T) {
		idx, dec := routePick(0xdeadbeef, 3, []int{0, 0, 0, 0}, 8, perMax)
		if dec != decisionAffinity {
			t.Fatalf("precondition: want affinity, got %d", dec)
		}
		loads := []int{0, 0, 0, 0}
		loads[idx] = 9 // margin 8: one over
		idx2, dec2 := routePick(0xdeadbeef, 3, loads, 8, perMax)
		if dec2 != decisionSpill || idx2 == idx {
			t.Fatalf("got (%d,%d), want spill off replica %d", idx2, dec2, idx)
		}
		// At exactly the margin, affinity holds.
		loads[idx] = 8
		idx3, dec3 := routePick(0xdeadbeef, 3, loads, 8, perMax)
		if idx3 != idx || dec3 != decisionAffinity {
			t.Fatalf("at-margin: got (%d,%d), want (%d,affinity)", idx3, dec3, idx)
		}
	})

	t.Run("negative margin disables margin spill", func(t *testing.T) {
		idx, _ := routePick(0xdeadbeef, 3, []int{0, 0, 0, 0}, -1, perMax)
		loads := []int{0, 0, 0, 0}
		loads[idx] = perMax - 1 // far ahead, but under the hard bound
		idx2, dec2 := routePick(0xdeadbeef, 3, loads, -1, perMax)
		if idx2 != idx || dec2 != decisionAffinity {
			t.Fatalf("margin-disabled: got (%d,%d), want (%d,affinity)", idx2, dec2, idx)
		}
		loads[idx] = perMax // hard saturation still spills
		_, dec3 := routePick(0xdeadbeef, 3, loads, -1, perMax)
		if dec3 != decisionSpill {
			t.Fatalf("at MaxSessions: decision %d, want spill", dec3)
		}
	})
}

func TestTenantLimiter(t *testing.T) {
	clock := time.Unix(0, 0)
	l := newTenantLimiter(10, 40) // 10 tokens/s, bucket of 40
	l.now = func() time.Time { return clock }

	if _, ok := l.take("a", 30); !ok {
		t.Fatal("fresh bucket refused an in-budget request")
	}
	retry, ok := l.take("a", 30)
	if ok {
		t.Fatal("drained bucket admitted a request")
	}
	// 10 tokens remain, 20 more needed at 10/s → 2s.
	if retry != 2*time.Second {
		t.Fatalf("retry-after %s, want 2s", retry)
	}
	if _, ok := l.take("b", 30); !ok {
		t.Fatal("tenant buckets leaked into each other")
	}
	clock = clock.Add(2 * time.Second)
	if _, ok := l.take("a", 30); !ok {
		t.Fatal("refilled bucket refused the retried request")
	}
	// Oversized cost clamps to burst instead of being unserviceable.
	clock = clock.Add(time.Hour)
	if _, ok := l.take("a", 1000); !ok {
		t.Fatal("over-burst request refused against a full bucket")
	}
	if _, ok := l.take("a", 1); ok {
		t.Fatal("bucket not fully drained by clamped over-burst request")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative replicas", Config{Replicas: -1}, "Replicas"},
		{"negative chunks", Config{AffinityChunks: -2}, "AffinityChunks"},
		{"negative max sessions", Config{MaxSessions: -1}, "MaxSessions"},
		{"negative rate", Config{TenantRate: -1}, "TenantRate"},
		{"negative burst", Config{TenantBurst: -1}, "TenantBurst"},
		{"shared tracer", Config{Serve: serve.Config{Tracer: obs.NewTracer(8)}}, "Serve.Tracer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err %v, want ErrBadConfig", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field {
				t.Fatalf("err %v, want ConfigError for field %s", err, tc.field)
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	// Bad embedded engine template surfaces the serve error.
	err := Config{Serve: serve.Config{PromptChunk: -1}}.Validate()
	if !errors.Is(err, serve.ErrBadConfig) {
		t.Fatalf("err %v, want serve.ErrBadConfig", err)
	}
}

func TestFleetAdmission(t *testing.T) {
	r := train.TestModel()
	fl := NewFleet(r.Params, Config{
		Replicas:    2,
		MaxSessions: 1,
		Serve:       serve.Config{Workers: 1, BlockRows: 16},
	})
	defer fl.Close()

	req := Request{}
	req.Prompt = r.Held[:8]
	req.MaxTokens = 48
	st, err := fl.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err = fl.Submit(context.Background(), req)
	if !errors.Is(err, serve.ErrBusy) {
		t.Fatalf("over fleet bound: err %v, want ErrBusy", err)
	}
	if got := fl.Report().Routing.Rejected; got != 1 {
		t.Fatalf("Rejected %d, want 1", got)
	}
	st.Result()

	// Invalid requests fail validation before any routing or accounting.
	_, err = fl.Submit(context.Background(), Request{})
	if !errors.Is(err, serve.ErrInvalidRequest) {
		t.Fatalf("empty prompt: err %v, want ErrInvalidRequest", err)
	}
}

func TestFleetRateLimit(t *testing.T) {
	r := train.TestModel()
	fl := NewFleet(r.Params, Config{
		Replicas:   2,
		TenantRate: 1, // burst 4: one 3-token request per bucket, then dry
		Serve:      serve.Config{Workers: 1, BlockRows: 16},
	})
	defer fl.Close()

	req := Request{Tenant: "alice"}
	req.Prompt = r.Held[:2]
	req.MaxTokens = 1
	st, err := fl.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("in-budget submit: %v", err)
	}
	st.Result()
	_, err = fl.Submit(context.Background(), req)
	if !errors.Is(err, serve.ErrBusy) {
		t.Fatalf("over budget: err %v, want ErrBusy", err)
	}
	var rle *RateLimitError
	if !errors.As(err, &rle) || rle.Tenant != "alice" || rle.RetryAfter <= 0 {
		t.Fatalf("err %v, want RateLimitError for alice with positive RetryAfter", err)
	}
	// Other tenants keep their own budget.
	req.Tenant = "bob"
	st, err = fl.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("fresh tenant: %v", err)
	}
	st.Result()
	if got := fl.Report().Routing.RateLimited; got != 1 {
		t.Fatalf("RateLimited %d, want 1", got)
	}
}

func TestFleetClosed(t *testing.T) {
	r := train.TestModel()
	fl := NewFleet(r.Params, Config{Replicas: 2, Serve: serve.Config{Workers: 1, BlockRows: 16}})
	fl.Close()
	fl.Close() // idempotent
	req := Request{}
	req.Prompt = r.Held[:4]
	if _, err := fl.Submit(context.Background(), req); !errors.Is(err, serve.ErrServerClosed) {
		t.Fatalf("after Close: err %v, want ErrServerClosed", err)
	}
}

func TestRateLimitErrorIsBusy(t *testing.T) {
	err := error(&RateLimitError{Tenant: "t", RetryAfter: time.Second})
	if !errors.Is(err, serve.ErrBusy) {
		t.Fatal("RateLimitError must match serve.ErrBusy")
	}
	if errors.Is(err, serve.ErrServerClosed) {
		t.Fatal("RateLimitError must not match ErrServerClosed")
	}
}
