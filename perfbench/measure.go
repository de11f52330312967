package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// allocSample reads the cumulative heap allocation (runtime.MemStats
// TotalAlloc) without stopping the world. It is reused, so that reading it
// inside a timing window allocates nothing; only the client goroutine reads.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() float64 {
	metrics.Read(allocSample)
	return float64(allocSample[0].Value.Uint64())
}

// ioCounters are the write-side counters of /proc/self/io.
type ioCounters struct {
	syscw, wchar float64
}

func (a ioCounters) sub(b ioCounters) ioCounters {
	return ioCounters{syscw: a.syscw - b.syscw, wchar: a.wchar - b.wchar}
}

// readIO reads the process's write syscall and written byte counts (zero
// where /proc/self/io is unavailable).
func readIO() ioCounters {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return ioCounters{}
	}
	var c ioCounters
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		k, v, ok := bytes.Cut(sc.Bytes(), []byte(": "))
		if !ok {
			continue
		}
		n, _ := strconv.ParseFloat(string(v), 64)
		switch string(k) {
		case "syscw":
			c.syscw = n
		case "wchar":
			c.wchar = n
		}
	}
	return c
}

// window measures one operation: wall time and the process resources spent
// between begin and end.
type window struct {
	t0     time.Time
	cpu0   float64
	allo0  float64
	withIO bool
	io0    ioCounters
}

// begin opens a window; withIO adds the /proc/self/io write counters, which
// cost two file reads per op and are read only where reported.
func begin(withIO bool) window {
	w := window{withIO: withIO}
	if withIO {
		w.io0 = readIO()
	}
	w.allo0 = allocBytes()
	w.cpu0 = cpuSeconds()
	w.t0 = time.Now()
	return w
}

func (w window) end(kind string) opSample {
	wall := time.Since(w.t0).Seconds()
	cpu := cpuSeconds() - w.cpu0
	s := opSample{kind: kind, wall: wall, cpu: cpu, allocBytes: allocBytes() - w.allo0}
	if w.withIO {
		s.io = readIO().sub(w.io0)
	}
	return s
}
