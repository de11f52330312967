// Package invariant is the runtime invariant checker: cheap, always-compiled
// assertions at the seams the recovery machinery depends on (journal
// state-machine monotonicity, cost-accumulator vs recomputed-cost agreement,
// store terminal-state exclusivity), enabled by tests, the chaos harness,
// and the twmc/twserve -invariants flag.
//
// Like faultinject, the disabled path is a single atomic pointer load with
// zero allocations, so the checks stay compiled into production binaries.
// When enabled, a failed check increments the process-wide violation count
// (Count) and invariant.violations (and invariant.violation.<check>) in the
// attached telemetry registry, and logs through the configured logger.
// Checks never abort the run they observe; the chaos harness fails a
// schedule whose Count is nonzero.
//
// The check sites themselves live next to the code they guard; this package
// only carries the enable/report plumbing. DESIGN.md §11 lists every check.
package invariant

import (
	"fmt"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Options configures an Enable call.
type Options struct {
	// Logf receives one line per violation; nil discards.
	Logf func(format string, args ...any)
	// Registry, when non-nil, counts violations as invariant.violations and
	// invariant.violation.<check>.
	Registry *telemetry.Registry
}

type state struct {
	opts  Options
	count atomic.Int64
}

var active atomic.Pointer[state]

// Enable turns checking on process-wide, replacing any previous options.
// The violation count restarts at zero.
func Enable(opts Options) {
	st := &state{opts: opts}
	active.Store(st)
}

// Disable turns checking off; check sites return to the one-atomic-load
// fast path.
func Disable() { active.Store(nil) }

// Enabled reports whether checks are active. Sites with non-trivial check
// cost (recomputing placement cost) gate on it before doing the work.
func Enabled() bool { return active.Load() != nil }

// Count returns violations recorded since the last Enable, or 0 when
// disabled.
func Count() int64 {
	st := active.Load()
	if st == nil {
		return 0
	}
	return st.count.Load()
}

// Failf reports a violation of the named check. It is a no-op when checking
// is disabled, so sites may call it unconditionally on a failed condition.
func Failf(check string, format string, args ...any) {
	st := active.Load()
	if st == nil {
		return
	}
	st.count.Add(1)
	msg := fmt.Sprintf(format, args...)
	if st.opts.Logf != nil {
		st.opts.Logf("invariant violation [%s]: %s", check, msg)
	}
	if st.opts.Registry != nil {
		st.opts.Registry.Counter("invariant.violations").Inc()
		st.opts.Registry.Counter("invariant.violation." + check).Inc()
	}
}
