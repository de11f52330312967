// Command perfbench is the repository benchmark: workloads that time the
// TimberWolfMC flow and the job service end to end, check every output, and
// (with --trace 1) split each operation into per-layer timings and counts.
//
//	perfbench --workload flow-route --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"op_s": {"value": 2.41, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 they are the per-layer metrics, derived from spans the
// benchmark records around its calls into each layer (written to
// .bench_build/spans-<workload>-<seed>.jsonl). Progress and diagnostics go to
// standard error. perfbench/DESIGN.md records why each workload exists and
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything a run writes, relative to the repository root
// the benchmark is started from.
const buildDir = ".bench_build"

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// workload runs one measured loop and fills a report.
type workload func(cfg config, rep *report) error

var workloads = map[string]workload{
	"flow-route":   runFlowRoute,
	"serve-cached": runServeCached,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input is derived from it")
	flag.Float64Var(&cfg.seconds, "seconds", 50, "wall time a run measures for")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if reexeced, code := maybeRunInRAMStore(cfg); reexeced {
		os.Exit(code)
	}
	rep := newReport()
	if err := w(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if cfg.trace {
		path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := rep.spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(rep.spans.spans), path)
	}
	if err := rep.print(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// opSample is one measured operation: its kind, wall time, and the process
// resources consumed inside its timing window.
type opSample struct {
	kind       string
	wall       float64 // s
	cpu        float64 // s, user+sys of the whole process
	allocBytes float64
	io         ioCounters
}

// kindStats accumulates the ops of one kind: wall times and results are
// sampled (medians need them), resources are summed.
type kindStats struct {
	walls      sample
	cpu, alloc float64
	io         ioCounters
	// teil and area of the ops that returned a placement.
	teil, area sample
}

// reservoirSize bounds the values a sample keeps. serve-cached makes
// millions of ops; keeping every value would make the benchmark's own
// memory a large and varying part of peak_rss_mb.
const reservoirSize = 1 << 16

// sample keeps a uniform random sample of at most reservoirSize of the
// values added to it (Vitter's algorithm R, seeded, so a run is
// reproducible) and counts them all. Its median is within a fraction of a
// percent of the full set's. The zero value is empty and ready to use.
type sample struct {
	vals []float64
	n    int
	rnd  *rand.Rand
}

func (s *sample) add(v float64) {
	s.n++
	if len(s.vals) < reservoirSize {
		s.vals = append(s.vals, v)
		return
	}
	if s.rnd == nil {
		s.rnd = rand.New(rand.NewSource(1))
	}
	if j := s.rnd.Int63n(int64(s.n)); j < reservoirSize {
		s.vals[j] = v
	}
}

// report accumulates one run's measurements.
type report struct {
	setup     []float64 // s, one per repetition of the set-up
	kinds     map[string]*kindStats
	attempted int
	failed    int
	// layer holds per-op values of the per-layer metrics (trace mode),
	// reduced by median.
	layer map[string]*sample
	// layerFixed holds per-layer metrics measured once per run.
	layerFixed map[string]float64
	spans      *spanLog
}

func newReport() *report {
	return &report{
		kinds:      map[string]*kindStats{},
		layer:      map[string]*sample{},
		layerFixed: map[string]float64{},
		spans:      &spanLog{},
	}
}

func (r *report) kind(k string) *kindStats {
	ks, ok := r.kinds[k]
	if !ok {
		ks = &kindStats{}
		r.kinds[k] = ks
	}
	return ks
}

// op records a measured op that passed its checks.
func (r *report) op(s opSample) {
	ks := r.kind(s.kind)
	ks.walls.add(s.wall)
	ks.cpu += s.cpu
	ks.alloc += s.allocBytes
	ks.io.syscw += s.io.syscw
	ks.io.wchar += s.io.wchar
}

// ops returns the number of ops recorded.
func (r *report) ops() int {
	n := 0
	for _, ks := range r.kinds {
		n += ks.walls.n
	}
	return n
}

// result records the quality of an op's placement.
func (r *report) result(kind string, teil float64, area int64) {
	ks := r.kind(kind)
	ks.teil.add(teil)
	ks.area.add(float64(area))
}

// fail counts an op as failed; the first few reasons go to standard error.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: op failed: "+format+"\n", args...)
	}
}

// observe records one value of a per-layer metric for the current op.
func (r *report) observe(name string, v float64) {
	s, ok := r.layer[name]
	if !ok {
		s = &sample{}
		r.layer[name] = s
	}
	s.add(v)
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_s", "s"},
	{"cpu_s_per_op", "s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"teil", "lambda"},
	{"chip_area", "lambda2"},
}

// endToEndMetrics reduces the run to its end-to-end metrics. Per-op
// statistics are taken for each op kind and averaged over the kinds:
// workloads that mix kinds of very different size (serve-cached's submits
// and fetches) weigh every kind equally, so a run's figure does not depend on
// where the mix was cut off, and a median does not sit on a kind boundary
// and jump between kinds from run to run.
func (r *report) endToEndMetrics() map[string]metric {
	vals := map[string]float64{
		"setup_s":         median(r.setup),
		"op_s":            r.perKind(func(ks *kindStats) (float64, bool) { return median(ks.walls.vals), ks.walls.n > 0 }),
		"cpu_s_per_op":    r.perKind(func(ks *kindStats) (float64, bool) { return ks.cpu / float64(ks.walls.n), ks.walls.n > 0 }),
		"alloc_mb_per_op": r.perKind(func(ks *kindStats) (float64, bool) { return ks.alloc / 1e6 / float64(ks.walls.n), ks.walls.n > 0 }),
		"peak_rss_mb":     peakRSSMB(),
		"teil":            r.perKind(func(ks *kindStats) (float64, bool) { return median(ks.teil.vals), ks.teil.n > 0 }),
		"chip_area":       r.perKind(func(ks *kindStats) (float64, bool) { return median(ks.area.vals), ks.area.n > 0 }),
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// perKind averages f over the op kinds for which it is defined.
func (r *report) perKind(f func(*kindStats) (float64, bool)) float64 {
	sum, n := 0.0, 0
	for _, ks := range r.kinds {
		if v, ok := f(ks); ok {
			sum += v
			n++
		}
	}
	return sum / float64(n)
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) print(w io.Writer, trace bool) error {
	if r.attempted == 0 {
		return fmt.Errorf("no operation ran")
	}
	var m map[string]metric
	if trace {
		m = r.perLayerMetrics()
	} else {
		m = r.endToEndMetrics()
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops attempted, %d failed\n", r.attempted, r.failed)
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// loop runs ops back to back for cfg.seconds of wall time, checks
// included. An op is started only when the mean cycle so far says it will
// end inside the window, so a run lasts about cfg.seconds however long one
// op takes; the first op always runs.
func loop(cfg config, op func(i int)) {
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start).Seconds(); i > 0 && el+el/float64(i) > cfg.seconds {
			return
		}
		op(i)
	}
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// splitmix derives the i-th stream seed from a workload seed (SplitMix64),
// so every input of a run is a pure function of --seed.
func splitmix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
