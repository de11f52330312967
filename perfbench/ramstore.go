package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
)

// serve-cached keeps its job store in RAM so that it measures the
// program's CPU and syscalls rather than the latency of a shared disk, whose
// fsyncs drift by tens of percent between runs. The RAM filesystem is
// mounted inside the checkout, in a private mount namespace: the benchmark
// re-executes itself in a fresh namespace, mounts a tmpfs on an empty
// directory under .bench_build, and the mount disappears with the child.
// Where namespaces or mounts are not permitted the store falls back to that
// directory on disk, and a note on standard error says so.

// storeEnv carries the store directory to the re-executed child; privateEnv
// tells it that it owns a private mount namespace and may mount there.
const (
	storeEnv   = "PERFBENCH_STORE"
	privateEnv = "PERFBENCH_PRIVATE_MOUNTS"
)

// maybeRunInRAMStore re-executes serve-cached in a private mount
// namespace. It reports whether it did, and the child's exit code.
func maybeRunInRAMStore(cfg config) (bool, int) {
	if cfg.workload != "serve-cached" || os.Getenv(storeEnv) != "" {
		return false, 0
	}
	dir, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("store-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o700)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: store directory: %v\n", err)
		return true, 1
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return true, 1
	}
	child := func(private bool) *exec.Cmd {
		cmd := exec.Command(exe, os.Args[1:]...)
		cmd.Env = append(os.Environ(), storeEnv+"="+dir)
		cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if private {
			cmd.Env = append(cmd.Env, privateEnv+"=1")
			cmd.SysProcAttr.Unshareflags = syscall.CLONE_NEWNS
		}
		return cmd
	}
	cmd := child(true)
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: no private mount namespace (%v); job store on disk\n", err)
		cmd = child(false)
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return true, 1
		}
	}
	if err := cmd.Wait(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return true, ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return true, 1
	}
	return true, 0
}

// storeRoot returns the directory serve-cached keeps its job store in,
// mounting a tmpfs on it when the process owns a private mount namespace.
func storeRoot() (string, error) {
	dir := os.Getenv(storeEnv)
	if dir == "" {
		return "", fmt.Errorf("serve-cached runs through maybeRunInRAMStore")
	}
	if os.Getenv(privateEnv) == "1" {
		if err := syscall.Mount("perfbench", dir, "tmpfs", syscall.MS_NOSUID|syscall.MS_NODEV, "size=1g,mode=0700"); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cannot mount a RAM store (%v); job store on disk\n", err)
		}
	}
	return filepath.Join(dir, "jobs"), nil
}

// storeMB returns the space used on the filesystem holding dir, in MB.
func storeMB(dir string) float64 {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0
	}
	return float64(st.Blocks-st.Bfree) * float64(st.Bsize) / 1e6
}
