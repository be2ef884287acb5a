package serve

import (
	"errors"
	"fmt"
)

// ErrBadConfig is the sentinel every *ConfigError matches via errors.Is, so
// callers can test for "the server config is invalid" without enumerating
// fields.
var ErrBadConfig = errors.New("serve: invalid config")

// ConfigError reports a Config field whose value the engine refuses to run
// with. It matches ErrBadConfig.
type ConfigError struct {
	Field  string // Config field name, e.g. "SpeculateK"
	Reason string // human-readable constraint, e.g. "must not be negative"
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("serve: config field %s %s", e.Field, e.Reason)
}

// Is reports whether target is ErrBadConfig, making every ConfigError match
// the sentinel.
func (e *ConfigError) Is(target error) bool { return target == ErrBadConfig }

// Validate checks the knobs whose negative values have no meaning
// (SpeculateK). It returns the first violation as a *ConfigError; NewServer
// panics with it, so programs building configs from external input should
// call Validate first. The sizing knobs (Workers, MaxSessions, BlockRows,
// DefaultMaxNew) read any non-positive value as "use the default", and
// MaxPreempts is exempt: negative there is the documented way to disable
// preemption.
func (c Config) Validate() error {
	if c.SpeculateK < 0 {
		return &ConfigError{Field: "SpeculateK", Reason: "must not be negative (0 disables speculative decoding)"}
	}
	return nil
}
