package main

import (
	"errors"
	"strings"
	"testing"

	"tokenpicker/internal/fleet"
	"tokenpicker/internal/serve"
)

// TestParseFlagsValidatesConfigs pins the step from command line to engine
// config: defaults parse into a valid config, and a value NewServer or
// NewFleet would panic on comes back as the typed error naming its field,
// before anything is trained.
func TestParseFlagsValidatesConfigs(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		o, err := parseFlags(nil)
		if err != nil {
			t.Fatalf("default flags: %v", err)
		}
		sc := o.fleet.Serve
		if sc.Workers != 4 || sc.BlockRows != 32 || sc.SpeculateK != 0 || !sc.SharePrefix || sc.NewKernel == nil {
			t.Fatalf("default engine config %+v", sc)
		}
		if o.fleet.Replicas != 1 || !o.fleet.Affinity {
			t.Fatalf("default fleet config %+v", o.fleet)
		}
	})
	t.Run("flags reach the config", func(t *testing.T) {
		o, err := parseFlags([]string{"-workers", "2", "-block-rows", "8", "-speculate-k", "3", "-replicas", "2", "-listen", ":0"})
		if err != nil {
			t.Fatal(err)
		}
		if sc := o.fleet.Serve; sc.Workers != 2 || sc.BlockRows != 8 || sc.SpeculateK != 3 || o.fleet.Replicas != 2 {
			t.Fatalf("config %+v, replicas %d", sc, o.fleet.Replicas)
		}
	})

	rejected := []struct {
		args  []string
		field string // the ConfigError's field; "" for other errors
	}{
		{[]string{"-speculate-k", "-1"}, "SpeculateK"},
		{[]string{"-replicas", "-1"}, "Replicas"},
		{[]string{"-replicas", "2"}, ""}, // fleet mode needs -listen
		{[]string{"-no-such-flag"}, ""},
	}
	for _, tc := range rejected {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			_, err := parseFlags(tc.args)
			if err == nil {
				t.Fatal("accepted")
			}
			if tc.field == "" {
				return
			}
			var se *serve.ConfigError
			var fe *fleet.ConfigError
			switch {
			case errors.As(err, &se):
				if se.Field != tc.field {
					t.Fatalf("error %v names %s, want %s", err, se.Field, tc.field)
				}
			case errors.As(err, &fe):
				if fe.Field != tc.field {
					t.Fatalf("error %v names %s, want %s", err, fe.Field, tc.field)
				}
			default:
				t.Fatalf("error %v is not a ConfigError", err)
			}
		})
	}
}
