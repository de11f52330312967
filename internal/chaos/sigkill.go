package chaos

import (
	"encoding/json"
	"fmt"
	"time"
)

// RunSigkill executes a chaos run where every armed phase is a real child
// process that the parent kills with SIGKILL at a seeded random moment —
// actual crashes with no deferred cleanup, not simulated ones. Each schedule
// spawns up to MaxRestarts+1 armed children (rules derived in-child from the
// same (seed, index) the in-process runner uses), then one unarmed heal
// child that must converge, then verifies the store cold in the parent with
// the same verifier as every other mode.
//
// exe is the binary to re-execute under the child protocol (EnvChild etc.);
// empty means the current executable. Its main or TestMain must route
// IsChild() invocations to ChildMain.
func RunSigkill(opts Options, exe string) (*Report, error) {
	return run(opts, exe, "k", specRef, runSigkillSchedule)
}

// runSigkillSchedule runs one schedule's kill/restart/heal cycle.
func runSigkillSchedule(opts *Options, idx int, dir, exe string, refs map[string][]byte) Outcome {
	src := scheduleSource(opts.Seed, idx)
	out := Outcome{Schedule: idx, Rules: genRules(src)}
	specJSON, err := json.Marshal(opts.Spec)
	if err != nil {
		out.Violation = fmt.Errorf("spec: %w", err)
		return out
	}
	env := childEnv(opts, idx, dir, EnvSpec+"="+string(specJSON))

	for r := 0; r <= opts.MaxRestarts; r++ {
		if r > 0 {
			out.Restarts++
		}
		killAfter := time.Duration(src.IntRange(5, 80)) * time.Millisecond
		res := runChild(exe, append(env[:len(env):len(env)], EnvArmed+"=1"), killAfter)
		if out.Violation = res.check(fmt.Sprintf("restart %d: armed child", r), true); out.Violation != nil {
			return out
		}
		if !res.killed && res.code == childExitOK {
			break
		}
	}

	// Heal pass: a faultless child must converge on its own.
	res := runChild(exe, env, -1)
	if out.Violation = res.check("heal child", false); out.Violation == nil {
		_, out.Violation = verifyCold(opts, dir, nil, false, refs, &out)
	}
	return out
}
