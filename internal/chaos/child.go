package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/jobs"
)

// The twchaos child protocol: RunSigkill re-executes the current binary with
// these environment variables set, and the binary's main (or TestMain) must
// route such invocations to ChildMain. The child derives its fault rules
// from (EnvSeed, EnvIndex) via ScheduleRules, so nothing random crosses the
// process boundary.
const (
	// EnvChild marks the process as a chaos child ("1").
	EnvChild = "TWCHAOS_CHILD"
	// EnvDir is the job store root the child must open.
	EnvDir = "TWCHAOS_DIR"
	// EnvSeed is the master chaos seed, decimal.
	EnvSeed = "TWCHAOS_SEED"
	// EnvIndex is the schedule index, decimal.
	EnvIndex = "TWCHAOS_INDEX"
	// EnvSpec is the job spec, JSON-encoded.
	EnvSpec = "TWCHAOS_SPEC"
	// EnvArmed ("1") arms the schedule's fault rules inside the child;
	// absent for the heal pass.
	EnvArmed = "TWCHAOS_ARMED"
	// EnvNode, when set (decimal slot number), runs the child as fleet node
	// "n<slot>" of a multi-node chaos schedule (RunNode): it claims jobs
	// from the shared store under leases instead of submitting its own, and
	// derives its fault rules from (EnvSeed, EnvIndex, slot) via
	// NodeScheduleRules.
	EnvNode = "TWCHAOS_NODE"
	// EnvTenants, when set, is the fleet's tenant config in
	// jobs.ParseTenantConfig line format (TenantConfig.String()); fleet
	// children load it so their claim scheduling uses the same weights the
	// storm parent admits with.
	EnvTenants = "TWCHAOS_TENANTS"
)

// Child exit codes. Anything else is an unexpected failure the parent
// reports as a contract violation.
const (
	// childExitOK: every job in the store reached a terminal state.
	childExitOK = 0
	// childExitSetup: the child could not even parse its environment.
	childExitSetup = 2
	// childExitRetry: a clean, retryable non-result — the store would not
	// open, the submit was rejected, or jobs did not converge before the
	// child's own deadline. Legitimate under armed faults; a violation from
	// the heal pass.
	childExitRetry = 3
	// ChildExitInvariant: the work finished but the runtime invariant
	// checker tripped. Always a violation.
	ChildExitInvariant = 7
)

// IsChild reports whether this process was spawned under the child protocol.
func IsChild() bool { return os.Getenv(EnvChild) == "1" }

// ChildMain is the chaos child's entry point: open the store named by the
// environment, optionally arm the schedule's faults, run every job to a
// terminal state, and exit with one of the protocol codes. The parent kills
// the process with SIGKILL at a random moment — that, not the clean exit
// path, is the part under test.
func ChildMain() int {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "twchaos-child[%d]: "+format+"\n",
			append([]any{os.Getpid()}, args...)...)
	}
	dir := os.Getenv(EnvDir)
	if dir == "" {
		logf("missing %s", EnvDir)
		return childExitSetup
	}

	invariant.Enable(invariant.Options{Logf: logf})
	defer invariant.Disable()

	if os.Getenv(EnvArmed) == "1" {
		seed, err := strconv.ParseUint(os.Getenv(EnvSeed), 10, 64)
		if err != nil {
			logf("bad %s: %v", EnvSeed, err)
			return childExitSetup
		}
		idx, err := strconv.Atoi(os.Getenv(EnvIndex))
		if err != nil {
			logf("bad %s: %v", EnvIndex, err)
			return childExitSetup
		}
		rules := ScheduleRules(seed, idx)
		planeSeed := seed ^ uint64(idx)<<20
		if slotEnv := os.Getenv(EnvNode); slotEnv != "" {
			slot, err := strconv.Atoi(slotEnv)
			if err != nil {
				logf("bad %s: %v", EnvNode, err)
				return childExitSetup
			}
			rules = NodeScheduleRules(seed, idx, slot)
			planeSeed ^= uint64(slot+1) << 40
		}
		pl := faultinject.NewPlane(planeSeed, rules...)
		if err := pl.Arm(); err != nil {
			logf("arm: %v", err)
			return childExitSetup
		}
		defer faultinject.Disarm()
	}

	st, err := jobs.Open(dir, logf)
	if err != nil {
		logf("open store: %v", err)
		return childExitRetry
	}
	cfg := jobs.Config{Workers: 1, Backoff: fastBackoff, CheckpointEvery: 1, Logf: logf}
	var spec jobs.Spec
	if slotEnv := os.Getenv(EnvNode); slotEnv != "" {
		// A fleet node: claim whatever work the lease protocol entitles it
		// to from the shared store; the parent submits the jobs.
		cfg.NodeID = "n" + slotEnv
		cfg.LeaseTTL, cfg.ScanEvery = nodeLeaseTTL, nodeScanEvery
		if conf := os.Getenv(EnvTenants); conf != "" {
			if cfg.Tenants, err = jobs.ParseTenantConfig(strings.NewReader(conf)); err != nil {
				logf("bad %s: %v", EnvTenants, err)
				return childExitSetup
			}
		}
	} else if err := json.Unmarshal([]byte(os.Getenv(EnvSpec)), &spec); err != nil {
		logf("bad %s: %v", EnvSpec, err)
		return childExitSetup
	}
	m := jobs.NewManager(st, cfg)
	m.Start()
	if cfg.NodeID == "" && len(st.List()) == 0 {
		if _, err := m.Submit(spec); err != nil {
			logf("submit rejected: %v", err)
			drainQuiet(m)
			return childExitRetry
		}
	}
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) && !allTerminal(st) {
		time.Sleep(2 * time.Millisecond)
	}
	drainQuiet(m)
	if !allTerminal(st) {
		logf("jobs not terminal after %v", time.Minute)
		return childExitRetry
	}
	if invariant.Count() > 0 {
		return ChildExitInvariant
	}
	return childExitOK
}
