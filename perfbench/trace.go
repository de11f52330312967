package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one operation share Op; Parent is the
// enclosing span's ID (0 for a root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Op     int       `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) seconds() float64 { return s.End.Sub(s.Start).Seconds() }

// layer is the module a span belongs to: the part of its name before the
// first dot ("route.route" → route).
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// spanLog keeps spans in memory until the run ends. Calls nest like a
// stack: start opens a span under the innermost open one.
type spanLog struct {
	spans  []span
	open   []int // indexes into spans
	nextID int
}

// start opens a span and returns its index for finish.
func (l *spanLog) start(op int, name string) int {
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	l.nextID++
	l.spans = append(l.spans, span{ID: l.nextID, Parent: parent, Op: op, Name: name, Start: time.Now()})
	i := len(l.spans) - 1
	l.open = append(l.open, i)
	return i
}

// finish closes span i, which must be the innermost open span, and returns
// its duration in seconds.
func (l *spanLog) finish(i int) float64 {
	l.spans[i].End = time.Now()
	l.open = l.open[:len(l.open)-1]
	return l.spans[i].seconds()
}

// timed runs f inside a span and returns the span's duration.
func (l *spanLog) timed(op int, name string, f func()) float64 {
	i := l.start(op, name)
	f()
	return l.finish(i)
}

// selfByLayer sums, per layer, the self time of spans: each span's duration
// minus the part its child spans cover.
func selfByLayer(spans []span) map[string]float64 {
	child := map[int]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.seconds()
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.layer()] += s.seconds() - child[s.ID]
	}
	return out
}

// thin keeps the spans of op in the log only for the first 1000 ops and
// every 100th after that, dropping spans[from:] otherwise, so a run of
// hundreds of thousands of small ops writes a bounded span file. Call it
// once the op's spans have been reduced.
func (l *spanLog) thin(op, from int) {
	if op > 1000 && op%100 != 0 {
		l.spans = l.spans[:from]
	}
}

// sumByName sums the durations of spans[from:] named name.
func (l *spanLog) sumByName(from int, name string) float64 {
	t := 0.0
	for _, s := range l.spans[from:] {
		if s.Name == name {
			t += s.seconds()
		}
	}
	return t
}

func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// perLayer lists the per-layer metrics in BENCHMARK.json order with units.
// Every workload reports all of them; a layer the workload never calls
// reports 0. Self times are kept for the modules an op's spans call into,
// plus "bench", the benchmark's own code inside an op span; gen runs only in
// the set-up (gen.s) and core only as the untraced reference (core.place_s).
var perLayer = []struct{ name, unit string }{
	{"route.p1_s", "s"},
	{"route.p2_s", "s"},
	{"route.alloc_mb", "MB"},
	{"route.alternatives", "count"},
	{"route.p2_attempts", "count"},
	{"route.length", "lambda"},
	{"route.excess", "count"},
	{"place.stage1_s", "s"},
	{"place.stage1_attempts", "count"},
	{"place.stage1_accept_rate", "fraction"},
	{"place.stage1_ns_per_attempt", "ns"},
	{"place.stage1_alloc_mb", "MB"},
	{"place.refine_s", "s"},
	{"place.refine_steps", "count"},
	{"place.refine_accept_rate", "fraction"},
	{"refine.netconv_s", "s"},
	{"channel.build_s", "s"},
	{"channel.regions", "count"},
	{"channel.edges", "count"},
	{"drc.check_s", "s"},
	{"drc.errors", "count"},
	{"drc.warnings", "count"},
	{"write.s", "s"},
	{"write.bytes", "bytes"},
	{"jobs.open_s", "s"},
	{"jobs.open_jobs", "count"},
	{"jobs.submit_alias_s", "s"},
	{"jobs.submit_replay_s", "s"},
	{"jobs.resolve_s", "s"},
	{"jobs.submit_alias_p90_s", "s"},
	{"jobs.write_syscalls_per_op", "count"},
	{"jobs.bytes_written_per_op", "bytes"},
	{"core.place_s", "s"},
	{"trace.op_s", "s"},
	{"trace.untraced_op_s", "s"},
	{"trace.overhead_s", "s"},
	{"gen.s", "s"},
	{"place.self_s", "s"},
	{"channel.self_s", "s"},
	{"route.self_s", "s"},
	{"refine.self_s", "s"},
	{"drc.self_s", "s"},
	{"jobs.self_s", "s"},
	{"bench.self_s", "s"},
}

// observeSelf records the per-layer self times of one op's spans as its
// <layer>.self_s values, for the layers the op called.
func (r *report) observeSelf(spans []span) {
	for l, v := range selfByLayer(spans) {
		r.observe(l+".self_s", v)
	}
}

// perLayerMetrics reduces the traced run: the median over ops of each
// per-op value, or the run-level value; metrics the workload never touched
// are 0.
func (r *report) perLayerMetrics() map[string]metric {
	out := map[string]metric{}
	for _, m := range perLayer {
		v, ok := r.layerFixed[m.name]
		if s := r.layer[m.name]; !ok && s != nil {
			v = median(s.vals)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}
