// Package telcli wires the standard telemetry flags — -trace, -metrics,
// -pprof, -progress — into a telemetry.Tracer, so the three CLIs (twmc,
// twexp, twgen) expose one observability surface with a single formatting
// path. A binary that passes none of the flags gets a nil tracer and the
// zero-overhead disabled path everywhere.
package telcli

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/par"
	"repro/internal/telemetry"
)

// Flags holds the registered telemetry flag values.
type Flags struct {
	Trace         *string
	Metrics       *string
	Pprof         *string
	Progress      *bool
	ProgressEvery *time.Duration
}

// Register adds the telemetry flags to fs (use flag.CommandLine for the
// default set).
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		Trace:   fs.String("trace", "", "write a JSONL annealing trace to this file (inspect with twtrace)"),
		Metrics: fs.String("metrics", "", "write a JSON metrics snapshot to this file at exit"),
		Pprof:   fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)"),
		Progress: fs.Bool("progress", false,
			"print per-temperature-step progress lines to stderr"),
		ProgressEvery: fs.Duration("progress-every", 0,
			"throttle progress lines to one per interval (0 = every line)"),
	}
}

// Runtime is the live telemetry plumbing behind a CLI run. Close tears it
// down: flushes the trace, writes the metrics snapshot (including worker-pool
// stats), and stops the pprof server.
type Runtime struct {
	// Tracer is nil when no telemetry flag was set — producers then take
	// their disabled fast path.
	Tracer *telemetry.Tracer

	reg         *telemetry.Registry
	sink        *telemetry.JSONLSink
	sinkIface   telemetry.Sink
	prog        telemetry.ProgressFunc
	traceFile   *os.File
	metricsPath string
	pprofSrv    *http.Server
	metricsSrv  *http.Server

	closeOnce sync.Once
	closeErr  error
}

// Registry returns the runtime's live metrics registry, or nil when neither
// -metrics nor EnsureRegistry asked for one.
func (rt *Runtime) Registry() *telemetry.Registry { return rt.reg }

// EnsureRegistry guarantees the runtime has a live registry even when
// -metrics was not passed — long-running servers use it to back a /metrics
// endpoint. The Tracer is rebuilt so producers feed the new registry.
func (rt *Runtime) EnsureRegistry() *telemetry.Registry {
	if rt.reg == nil {
		rt.reg = telemetry.NewRegistry()
		rt.Tracer = telemetry.New(rt.sinkIface, rt.reg, rt.prog)
	}
	return rt.reg
}

// FoldPoolStats copies the process-wide worker-pool counters into the
// registry (no-op without one). Close does this once at exit; a server calls
// it before each /metrics scrape so the snapshot is current.
func (rt *Runtime) FoldPoolStats() {
	if rt.reg == nil {
		return
	}
	ps := par.Stats()
	rt.reg.Gauge("pool.tasks_started").Set(float64(ps.TasksStarted))
	rt.reg.Gauge("pool.tasks_done").Set(float64(ps.TasksDone))
	rt.reg.Gauge("pool.retries").Set(float64(ps.Retries))
	rt.reg.Gauge("pool.panics").Set(float64(ps.Panics))
	rt.reg.Gauge("pool.max_concurrent").Set(float64(ps.MaxConcurrent))
}

// ServeMetrics starts an HTTP listener on addr serving MountMetrics's
// scrape surface — for long CLI runs (twmc -metrics-listen). It guarantees
// a live registry (rebuilding the Tracer, so call it before capturing
// rt.Tracer), registers the build_info gauge, and returns the bound address.
// Close stops the listener.
func (rt *Runtime) ServeMetrics(addr, node string) (string, error) {
	reg := rt.EnsureRegistry()
	bi := telemetry.RegisterBuildInfo(reg, node)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("-metrics-listen: %w", err)
	}
	mux := http.NewServeMux()
	rt.MountMetrics(mux, bi, nil)
	rt.metricsSrv = &http.Server{Handler: mux}
	go rt.metricsSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// MountMetrics registers the scrape surface on mux: GET /metrics serves the
// registry in the Prometheus text exposition format (version 0.0.4) after
// folding in the pool counters, and GET /healthz answers
// "ok version=… go=… node=…" from bi. The runtime must already have a
// registry (EnsureRegistry). logf, when non-nil, receives a failed write.
func (rt *Runtime) MountMetrics(mux *http.ServeMux, bi telemetry.BuildInfo, logf func(string, ...any)) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		rt.FoldPoolStats()
		w.Header().Set("Content-Type", telemetry.PrometheusContentType)
		if err := rt.reg.WritePrometheus(w); err != nil && logf != nil {
			logf("metrics: %v", err)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "ok version=%s go=%s node=%s\n", bi.Version, bi.Go, bi.Node)
	})
}

// Start builds the telemetry runtime the flags ask for. prefix labels
// progress lines and pprof notices ("twmc"). forceProgress additionally
// enables the stderr progress sink even without -progress (the CLIs' -v).
func (f *Flags) Start(prefix string, forceProgress bool) (*Runtime, error) {
	rt := &Runtime{}
	var sink telemetry.Sink
	var prog telemetry.ProgressFunc
	enabled := false
	if *f.Trace != "" {
		file, err := os.Create(*f.Trace)
		if err != nil {
			return nil, fmt.Errorf("-trace: %w", err)
		}
		rt.traceFile = file
		rt.sink = telemetry.NewJSONLSink(file)
		sink = rt.sink
		rt.sinkIface = sink
		enabled = true
	}
	if *f.Metrics != "" {
		rt.reg = telemetry.NewRegistry()
		rt.metricsPath = *f.Metrics
		enabled = true
	}
	if *f.Progress || forceProgress {
		prog = telemetry.StderrProgress(prefix)
		if *f.ProgressEvery > 0 {
			prog = telemetry.Throttled(*f.ProgressEvery, prog)
		}
		rt.prog = prog
		enabled = true
	}
	if *f.Pprof != "" {
		srv, addr, err := telemetry.StartPprof(*f.Pprof)
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("-pprof: %w", err)
		}
		rt.pprofSrv = srv
		fmt.Fprintf(os.Stderr, "%s: pprof listening on http://%s/debug/pprof/\n", prefix, addr)
	}
	if enabled {
		rt.Tracer = telemetry.New(sink, rt.reg, prog)
	}
	return rt, nil
}

// Close finishes the run's telemetry: worker-pool stats are folded into the
// registry, the metrics snapshot is written, the trace is flushed, and the
// pprof server is stopped. Returns the first error; the run's results are
// already out, so callers typically just report it.
//
// Close is idempotent: later calls return the first call's error without
// re-closing anything. That makes an unconditional `defer rt.Close()` safe
// in servers whose shutdown path also closes explicitly — the fix for trace
// sinks silently losing their tail when a drain timed out and the early
// error return skipped the flush.
func (rt *Runtime) Close() error {
	rt.closeOnce.Do(func() { rt.closeErr = rt.close() })
	return rt.closeErr
}

func (rt *Runtime) close() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	rt.FoldPoolStats()
	if rt.metricsPath != "" && rt.reg != nil {
		f, err := os.Create(rt.metricsPath)
		if err != nil {
			keep(fmt.Errorf("-metrics: %w", err))
		} else {
			keep(rt.reg.WriteJSON(f))
			keep(f.Close())
		}
	}
	if rt.sink != nil {
		keep(rt.sink.Close())
	}
	if rt.traceFile != nil {
		keep(rt.traceFile.Close())
	}
	if rt.pprofSrv != nil {
		keep(rt.pprofSrv.Close())
	}
	if rt.metricsSrv != nil {
		keep(rt.metricsSrv.Close())
	}
	return first
}
