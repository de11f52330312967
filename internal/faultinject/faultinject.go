// Package faultinject is the deterministic fault plane behind the chaos
// harness (internal/chaos, cmd/twchaos): named injection points threaded
// through the durability and execution layers (internal/fsio, internal/jobs,
// internal/par, internal/place) that can be armed with seeded rules to fail,
// delay, panic, or tear writes at exact, reproducible moments.
//
// Contract:
//
//   - Zero overhead when disarmed. Every point is guarded by a single atomic
//     pointer load; with no plane armed, Check and Err return nil without
//     allocating (TestCheckDisarmedZeroAllocs pins this, and the place
//     package pins the end-to-end hot path).
//   - Deterministic when armed. A plane is built from a seed and a rule
//     list; probabilistic rules draw from per-rule rng.Source streams seeded
//     by (plane seed, point, rule index), so equal seeds reproduce the exact
//     trip sequence for a serial caller. Under concurrency the draw sequence
//     per rule is still fixed; only the assignment of draws to goroutines
//     varies, which is exactly the regime the chaos contract is stated over.
//   - Bounded by default. A rule trips Times times (default 1); Unlimited
//     opts out. Bounded budgets are what guarantee chaos schedules
//     terminate.
//
// Injected errors wrap ErrInjected, so tests can tell injected failures from
// real ones with errors.Is. Trip counts are kept per point and, when a
// telemetry registry is attached, exported as faultinject.trips and
// faultinject.trip.<point> counters.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Point names one injection site. The constants below are every point
// compiled into the tree; DESIGN.md §11 documents what each one simulates
// and which recovery path it exercises.
type Point string

const (
	// FsioWrite fails fsio.WriteFileAtomic before any bytes land
	// (ENOSPC-style rules go here).
	FsioWrite Point = "fsio.write"
	// FsioSync fails the temp-file fsync inside fsio.WriteFileAtomic.
	FsioSync Point = "fsio.sync"
	// FsioRename fails the rename that publishes an atomic write.
	FsioRename Point = "fsio.rename"
	// FsioSyncDir fails fsio.SyncDir (the directory-entry durability step).
	FsioSyncDir Point = "fsio.syncdir"
	// FsioWriteTorn lets fsio.WriteFileAtomic report success but truncates
	// the published file to Frac of its bytes: the torn/bit-rotted file the
	// CRC framing and quarantine paths exist for.
	FsioWriteTorn Point = "fsio.write.torn"
	// FsioAppend fails fsio.AppendLine before any bytes land. It is a
	// separate point from FsioWrite so span-record appends can be faulted
	// without perturbing the firing order of existing atomic-write schedules.
	FsioAppend Point = "fsio.append"

	// JobsJournalBefore fails a journal append before the disk write — the
	// crash-before-transition analog (memory and disk both keep the old
	// state).
	JobsJournalBefore Point = "jobs.journal.before"
	// JobsJournalAfter fails a journal append after the disk write — the
	// crash-between-transitions analog (disk is one record ahead of memory).
	JobsJournalAfter Point = "jobs.journal.after"
	// JobsCheckpointCorrupt makes the manager treat a freshly loaded, valid
	// checkpoint as corrupt, driving the quarantine-and-restart path.
	JobsCheckpointCorrupt Point = "jobs.checkpoint.corrupt"

	// JobsLeaseClaim fires at the top of a lease claim: Delay widens the
	// read-decide-create race window so concurrent claimers collide on the
	// O_EXCL file, Err fails the claim outright.
	JobsLeaseClaim Point = "jobs.lease.claim"
	// JobsLeaseHeartbeat fires inside lease renewal: Delay stalls the
	// heartbeat past the TTL (the holder looks dead and gets fenced), Err
	// fails the renewal write.
	JobsLeaseHeartbeat Point = "jobs.lease.heartbeat"
	// JobsLeaseSkew skews the lease layer's clock reads forward by Delay,
	// making one node see live peers' leases as already expired — the
	// premature-takeover scenario fencing tokens exist for.
	JobsLeaseSkew Point = "jobs.lease.skew"
	// JobsLeaseTorn truncates a freshly created claim file to Frac of its
	// bytes after a successful create: an acknowledged-then-lost claim write.
	// Readers must treat the undecodable claim as present-but-expired.
	JobsLeaseTorn Point = "jobs.lease.torn"

	// ParAttempt fires inside par.Retry's recovered attempt wrapper: Delay
	// stalls the attempt, Panic panics it (exercising panic isolation), Err
	// fails it.
	ParAttempt Point = "par.attempt"
	// ParTask fires in the worker pool as a task starts; only Delay is
	// honoured (slow-task / stalled-worker injection). Panic rules are
	// ignored here — a panic outside the recovery wrapper would kill the
	// process, which is the subprocess mode's job.
	ParTask Point = "par.task"

	// PlaceCheckpointSave fails place.SaveCheckpoint before it writes.
	PlaceCheckpointSave Point = "place.checkpoint.save"
	// PlaceCheckpointLoad fails place.LoadCheckpoint before it reads.
	PlaceCheckpointLoad Point = "place.checkpoint.load"

	// JobsDedupClaim fires just before a digest generation claim's O_EXCL
	// create: Err fails the claim before anything is written (the index is
	// left as it was), and the manager submits the job without the index;
	// Delay widens the read-decide-create race window.
	JobsDedupClaim Point = "jobs.dedup.claim"
	// ScrubWalk fires once per store root as scrub.Scan starts walking it;
	// Err fails the whole Scan (no report), Delay slows the sweep.
	ScrubWalk Point = "scrub.walk"
	// ScrubVerify fires once per job directory as the scrubber starts
	// verifying it; Err reports a "verify" defect for the directory and
	// skips its artifacts and the index entries naming the job, Delay slows
	// the sweep.
	ScrubVerify Point = "scrub.verify"
)

// Points returns every compiled-in injection point, sorted.
func Points() []Point {
	pts := []Point{
		FsioWrite, FsioSync, FsioRename, FsioSyncDir, FsioWriteTorn,
		FsioAppend,
		JobsJournalBefore, JobsJournalAfter, JobsCheckpointCorrupt,
		JobsLeaseClaim, JobsLeaseHeartbeat, JobsLeaseSkew, JobsLeaseTorn,
		ParAttempt, ParTask,
		PlaceCheckpointSave, PlaceCheckpointLoad,
		JobsDedupClaim, ScrubWalk, ScrubVerify,
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// ErrInjected is wrapped by every error the plane injects, so callers can
// distinguish injected faults from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Unlimited removes a rule's trip budget (Times).
const Unlimited = -1

// Rule arms one injection point. The zero values of the tuning fields mean:
// trip on the first hit (After 0), always once armed (Prob 0 or 1), exactly
// once (Times 0), with a generic ErrInjected-wrapping error.
type Rule struct {
	// Point is the site this rule arms.
	Point Point
	// After skips the first After hits of the point before the rule arms,
	// so a fault can be aimed at, say, the third checkpoint write.
	After int
	// Prob is the per-hit trip probability once armed; 0 and 1 both mean
	// "always". Draws come from a per-rule seeded stream.
	Prob float64
	// Times bounds how often the rule trips: 0 means once, Unlimited (-1)
	// means no bound.
	Times int
	// Err is the error to inject (wrapped with ErrInjected if it is not
	// already); nil selects a generic injected error unless the rule is
	// pure-delay, pure-panic, or a torn write.
	Err error
	// Frac is the fraction of bytes kept by a torn write (FsioWriteTorn).
	Frac float64
	// Delay stalls the caller before any error/panic is delivered.
	Delay time.Duration
	// Panic makes recovery-wrapped sites (ParAttempt) panic.
	Panic bool
}

// Fault is what a tripped rule tells the injection site to do.
type Fault struct {
	Point Point
	Err   error
	Frac  float64
	Delay time.Duration
	Panic bool
}

// ruleState is a Rule plus its live counters.
type ruleState struct {
	Rule
	src   *rng.Source // non-nil only for probabilistic rules
	hits  int
	trips int
}

// Plane is an armed (or armable) set of rules with deterministic state.
type Plane struct {
	seed uint64

	mu    sync.Mutex
	rules map[Point][]*ruleState
	trips map[Point]int64
	total int64
	reg   *telemetry.Registry
}

// NewPlane builds a plane from seed and rules. Probabilistic rules get
// independent rng streams seeded from (seed, point, rule index).
func NewPlane(seed uint64, rules ...Rule) *Plane {
	pl := &Plane{
		seed:  seed,
		rules: map[Point][]*ruleState{},
		trips: map[Point]int64{},
	}
	for i, r := range rules {
		if r.Times == 0 {
			r.Times = 1
		}
		if r.Err == nil && r.Point != FsioWriteTorn && !r.Panic && r.Delay == 0 {
			r.Err = fmt.Errorf("%w at %s", ErrInjected, r.Point)
		}
		if r.Err != nil && !errors.Is(r.Err, ErrInjected) {
			r.Err = fmt.Errorf("%w: %w", ErrInjected, r.Err)
		}
		rs := &ruleState{Rule: r}
		if r.Prob > 0 && r.Prob < 1 {
			rs.src = rng.New(seed ^ hashPoint(r.Point) ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
		}
		pl.rules[r.Point] = append(pl.rules[r.Point], rs)
	}
	return pl
}

// hashPoint is a cheap FNV-1a over the point name.
func hashPoint(p Point) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// SetRegistry attaches a telemetry registry; subsequent trips increment
// faultinject.trips and faultinject.trip.<point> counters in it.
func (pl *Plane) SetRegistry(reg *telemetry.Registry) {
	pl.mu.Lock()
	pl.reg = reg
	pl.mu.Unlock()
}

// Trips returns a snapshot of per-point trip counts so far.
func (pl *Plane) Trips() map[Point]int64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make(map[Point]int64, len(pl.trips))
	for p, n := range pl.trips {
		out[p] = n
	}
	return out
}

// TotalTrips returns the total number of faults this plane has injected.
func (pl *Plane) TotalTrips() int64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.total
}

// check evaluates the point's rules and returns the first fault that trips.
// Every rule's hit counter advances on every point hit (so After counts
// hits at the point, not evaluations of the rule), but at most one rule
// trips per hit.
func (pl *Plane) check(p Point) *Fault {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var hit *ruleState
	for _, rs := range pl.rules[p] {
		rs.hits++
		if hit != nil || rs.hits <= rs.After {
			continue
		}
		if rs.Times != Unlimited && rs.trips >= rs.Times {
			continue
		}
		if rs.src != nil && rs.src.Float64() >= rs.Prob {
			continue
		}
		hit = rs
	}
	if hit == nil {
		return nil
	}
	hit.trips++
	pl.trips[p]++
	pl.total++
	if pl.reg != nil {
		pl.reg.Counter("faultinject.trips").Inc()
		pl.reg.Counter("faultinject.trip." + string(p)).Inc()
	}
	return &Fault{Point: p, Err: hit.Err, Frac: hit.Frac, Delay: hit.Delay, Panic: hit.Panic}
}

// armed is the process-wide active plane; nil means every injection point is
// a single atomic load.
var armed atomic.Pointer[Plane]

// Arm makes pl the process-wide active plane. Arming over an already armed
// plane is an error: tests and harnesses must Disarm between schedules so
// trip state never bleeds.
func (pl *Plane) Arm() error {
	if !armed.CompareAndSwap(nil, pl) {
		return errors.New("faultinject: a plane is already armed")
	}
	return nil
}

// Disarm deactivates the active plane, if any.
func Disarm() { armed.Store(nil) }

// Armed reports whether a plane is active.
func Armed() bool { return armed.Load() != nil }

// Check consults the armed plane at point p, returning the fault to apply
// or nil. The disarmed fast path is one atomic load.
func Check(p Point) *Fault {
	pl := armed.Load()
	if pl == nil {
		return nil
	}
	return pl.check(p)
}

// Err is Check for error-only sites: it applies the fault's Delay (if any)
// and returns its error. Panic rules never fire here.
func Err(p Point) error {
	pl := armed.Load()
	if pl == nil {
		return nil
	}
	f := pl.check(p)
	if f == nil {
		return nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	return f.Err
}

// ParseRules parses a rule-spec string into rules:
//
//	point[:key=value[,key=value...]][;point...]
//
// Keys: after=N, prob=F, times=N|inf, frac=F, delay=DUR, panic, and
// err=enospc|erofs|eio|fail. Example:
//
//	fsio.write:err=enospc,after=2;par.attempt:panic,times=2
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	known := map[Point]bool{}
	for _, p := range Points() {
		known[p] = true
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, args, _ := strings.Cut(part, ":")
		r := Rule{Point: Point(strings.TrimSpace(name))}
		if !known[r.Point] {
			return nil, fmt.Errorf("faultinject: unknown point %q", name)
		}
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				key, val, _ := strings.Cut(strings.TrimSpace(kv), "=")
				var err error
				switch key {
				case "after":
					r.After, err = strconv.Atoi(val)
				case "prob":
					r.Prob, err = strconv.ParseFloat(val, 64)
				case "times":
					if val == "inf" {
						r.Times = Unlimited
					} else {
						r.Times, err = strconv.Atoi(val)
					}
				case "frac":
					r.Frac, err = strconv.ParseFloat(val, 64)
				case "delay":
					r.Delay, err = time.ParseDuration(val)
				case "panic":
					r.Panic = true
				case "err":
					switch val {
					case "enospc":
						r.Err = syscall.ENOSPC
					case "erofs":
						r.Err = syscall.EROFS
					case "eio":
						r.Err = syscall.EIO
					case "fail":
						// generic; NewPlane fills it in
					default:
						err = fmt.Errorf("unknown err kind %q", val)
					}
				default:
					err = fmt.Errorf("unknown key %q", key)
				}
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: %v", part, err)
				}
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultinject: empty rule spec %q", spec)
	}
	return rules, nil
}
