package chaos

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// childResult is one child process's fate.
type childResult struct {
	code   int
	killed bool // SIGKILLed on schedule
	hung   bool // killed by the watchdog instead of exiting
	stderr string
	err    error // spawn failure
}

// check classifies a child's fate for the contract. A schedule's SIGKILL
// is the point of the exercise; a clean retryable non-result is legitimate
// only under armed faults; invariant trips, hangs, spawn failures and
// protocol breaks are violations.
func (r childResult) check(who string, armed bool, deadline time.Duration) error {
	switch {
	case r.err != nil:
		return fmt.Errorf("%s: spawn: %w", who, r.err)
	case r.hung:
		return fmt.Errorf("hang: %s outlived %v\n%s", who, deadline, r.stderr)
	case r.killed, r.code == childExitOK, armed && r.code == childExitRetry:
		return nil
	case r.code == ChildExitInvariant:
		return fmt.Errorf("%s reported invariant violations\n%s", who, r.stderr)
	}
	return fmt.Errorf("%s exited %d\n%s", who, r.code, r.stderr)
}

// nodeProc is one child under parent control: it outlives the call that
// starts it, so a kill loop can SIGKILL it at any moment.
type nodeProc struct {
	cmd  *exec.Cmd
	buf  bytes.Buffer
	done chan struct{}
}

func startNode(exe string, env []string) (*nodeProc, error) {
	p := &nodeProc{done: make(chan struct{})}
	p.cmd = exec.Command(exe)
	p.cmd.Env = env
	p.cmd.Stdout = &p.buf
	p.cmd.Stderr = &p.buf
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// exited reports whether the child has terminated (without blocking).
func (p *nodeProc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the child and waits for the reaper.
func (p *nodeProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// take returns the result of an already-exited child.
func (p *nodeProc) take() childResult {
	<-p.done
	return childResult{code: p.cmd.ProcessState.ExitCode(), stderr: p.buf.String()}
}

// result waits for the child up to deadline, killing it on expiry.
// killAfter ≥ 0 SIGKILLs it on schedule after that long instead.
func (p *nodeProc) result(killAfter, deadline time.Duration) childResult {
	var kill <-chan time.Time
	if killAfter >= 0 {
		kill = time.After(killAfter)
	}
	select {
	case <-p.done:
		return p.take()
	case <-kill:
		p.kill()
		return childResult{killed: true}
	case <-time.After(deadline):
		p.kill()
		return childResult{hung: true, stderr: p.buf.String()}
	}
}

// runChild executes exe under env, SIGKILLs it after killAfter (< 0 means
// never), and enforces deadline as a watchdog either way.
func runChild(exe string, env []string, killAfter, deadline time.Duration) childResult {
	p, err := startNode(exe, env)
	if err != nil {
		return childResult{err: err}
	}
	return p.result(killAfter, deadline)
}

// childEnv is the child-protocol environment of schedule idx over dir.
func childEnv(opts *Options, idx int, dir string, extra ...string) []string {
	return append(append(os.Environ(),
		EnvChild+"=1",
		EnvDir+"="+dir,
		EnvSeed+"="+strconv.FormatUint(opts.Seed, 10),
		EnvIndex+"="+strconv.Itoa(idx),
	), extra...)
}

// fleet is a schedule's set of worker nodes: child processes sharing one
// store, slot k running as node "n<k>" under NodeScheduleRules(seed, idx,
// k) when armed. Every method draws nothing from the schedule's rng, so
// callers keep their draws in a fixed order.
type fleet struct {
	exe      string
	env      []string
	deadline time.Duration
	procs    []*nodeProc
}

// newFleet starts n armed nodes.
func newFleet(opts *Options, exe string, n int, env []string) (*fleet, error) {
	f := &fleet{exe: exe, env: env, deadline: opts.ScheduleDeadline, procs: make([]*nodeProc, n)}
	for slot := range f.procs {
		if err := f.spawn(slot, true); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) spawn(slot int, armed bool) error {
	env := append(f.env[:len(f.env):len(f.env)], EnvNode+"="+strconv.Itoa(slot))
	if armed {
		env = append(env, EnvArmed+"=1")
	}
	p, err := startNode(f.exe, env)
	if err != nil {
		return fmt.Errorf("spawn node %d: %w", slot, err)
	}
	f.procs[slot] = p
	return nil
}

// stop SIGKILLs every live node.
func (f *fleet) stop() {
	for _, p := range f.procs {
		if p != nil {
			p.kill()
		}
	}
}

// reap collects every node that exited on its own — clean completion and
// clean retryable non-results are fine mid-churn — and respawns it armed
// when respawn is set (otherwise the slot stays empty until a kill picks
// it). On a violation the whole fleet is stopped.
func (f *fleet) reap(respawn bool) error {
	for slot, p := range f.procs {
		if p == nil || !p.exited() {
			continue
		}
		f.procs[slot] = nil
		err := p.take().check(fmt.Sprintf("node %d", slot), true, f.deadline)
		if err == nil && respawn {
			err = f.spawn(slot, true)
		}
		if err != nil {
			f.stop()
			return err
		}
	}
	return nil
}

// kill SIGKILLs the victim slot mid-whatever (claim, heartbeat,
// checkpoint) and respawns it armed.
func (f *fleet) kill(victim int) error {
	if p := f.procs[victim]; p != nil {
		p.kill()
	}
	if err := f.spawn(victim, true); err != nil {
		f.stop()
		return err
	}
	return nil
}

// heal stops the armed fleet and runs a faultless one of the same size,
// which must converge: every node exits OK (all jobs terminal) within the
// schedule deadline, no excuses.
func (f *fleet) heal() error {
	f.stop()
	var err error
	for slot := range f.procs {
		if err = f.spawn(slot, false); err != nil {
			f.procs = f.procs[:slot]
			break
		}
	}
	for slot, p := range f.procs {
		if verr := p.result(-1, f.deadline).check(fmt.Sprintf("heal node %d", slot), false, f.deadline); verr != nil {
			err = verr
		}
	}
	return err
}
