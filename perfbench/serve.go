package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/geom"
	"repro/internal/jobs"
	"repro/internal/place"
)

const (
	// sourceJobs is the number of succeeded source jobs the prepared store
	// holds; every cached op resolves to one of them.
	sourceJobs = 24
	// priorAliases is the number of earlier duplicate submits, each with
	// its own idempotency key, in the prepared store: the recovery scan of
	// the set-up reads them all.
	priorAliases = 3000
	// serveSetupReps is how often the set-up (open + start) is repeated;
	// setup_s is the median.
	serveSetupReps = 9
	// aliasEvery paces the duplicate submits: one is due every aliasEvery
	// of run time whatever the throughput, so every run's store grows the
	// same way (each alias adds a job, and the submit path's cost grows
	// with the store). Replays and fetches fill the time in between.
	aliasEvery = 10 * time.Millisecond
)

// source is a succeeded job of the prepared store and what it serves.
type source struct {
	spec      jobs.Spec
	id        string
	placement []byte
	info      *jobs.ResultInfo
}

// keyRec is an idempotency key of the prepared store, with the job it names
// and that job's source.
type keyRec struct {
	key string
	src int // index into sources
	id  string
}

// service is a manager over the prepared store, plus what the client knows
// about the store.
type service struct {
	store   *jobs.Store
	mgr     *jobs.Manager
	sources []source
	keys    []keyRec
	// served lists every prepared job whose result resolves to a source:
	// the sources and the aliases.
	served []keyRec
}

// managerConfig is the serve manager: one worker, single-node.
var managerConfig = jobs.Config{Workers: 1}

// sourceSpec is the i-th source job's spec: a short Stage 1 run on i3. The
// DRC gate is skipped so every source succeeds and is cacheable whatever
// residual overlap its anneal leaves.
func sourceSpec(seed uint64, i int) jobs.Spec {
	return jobs.Spec{
		Preset:     "i3",
		PresetSeed: splitmix(seed, 2_000_000+i),
		Seed:       splitmix(seed, 3_000_000+i),
		Ac:         20,
		SkipStage2: true,
		SkipDRC:    true,
	}
}

// prepareStore fills root with the store the workload starts from: the
// succeeded sources, then priorAliases duplicate submits with fresh keys.
// None of this is timed.
func prepareStore(seed uint64, root string) (*service, error) {
	store, err := jobs.Open(root, nil)
	if err != nil {
		return nil, err
	}
	mgr := jobs.NewManager(store, managerConfig)
	mgr.Start()
	defer mgr.Drain(context.Background())
	svc := &service{}
	var submitted []*jobs.Job
	for i := 0; i < sourceJobs; i++ {
		j, err := mgr.Submit(sourceSpec(seed, i))
		if err != nil {
			return nil, fmt.Errorf("prepare: submit source: %w", err)
		}
		submitted = append(submitted, j)
	}
	for i, j := range submitted {
		for !j.Last().State.Terminal() {
			time.Sleep(time.Millisecond)
		}
		if last := j.Last(); last.State != jobs.StateSucceeded {
			return nil, fmt.Errorf("prepare: source %s ended %s: %s", j.ID, last.State, last.Detail)
		}
		src, err := readSource(j, sourceSpec(seed, i))
		if err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		svc.sources = append(svc.sources, src)
		svc.served = append(svc.served, keyRec{src: i, id: j.ID})
	}
	for a := 0; a < priorAliases; a++ {
		k := a % sourceJobs
		key := fmt.Sprintf("prep-%d", a)
		j, created, err := mgr.SubmitIdem(svc.sources[k].spec, key)
		if err != nil || !created {
			return nil, fmt.Errorf("prepare: alias %d: created=%v: %v", a, created, err)
		}
		rec := keyRec{key: key, src: k, id: j.ID}
		svc.keys = append(svc.keys, rec)
		svc.served = append(svc.served, rec)
	}
	return svc, nil
}

// readSource loads a succeeded source's artifacts and checks that its
// placement reloads to the TEIL the service reported.
func readSource(j *jobs.Job, spec jobs.Spec) (source, error) {
	info, err := j.ReadResult()
	if err != nil {
		return source{}, err
	}
	pl, err := os.ReadFile(j.PlacementPath())
	if err != nil {
		return source{}, err
	}
	c, err := spec.Circuit()
	if err != nil {
		return source{}, err
	}
	p := place.New(c, geom.R(0, 0, 1, 1), nil)
	if err := place.ReadPlacement(bytes.NewReader(pl), p); err != nil {
		return source{}, fmt.Errorf("source %s: placement round trip: %w", j.ID, err)
	}
	if p.TEIL() != info.TEIL {
		return source{}, fmt.Errorf("source %s: placement reloads to TEIL %v, result says %v", j.ID, p.TEIL(), info.TEIL)
	}
	return source{spec: spec, id: j.ID, placement: pl, info: info}, nil
}

// startService is the set-up, repeated serveSetupReps times: the jobs.Open
// recovery scan over the prepared store plus Manager.Start. The last
// repetition's manager is the one the ops use.
func startService(rep *report, svc *service, root string) error {
	var opens []float64
	for r := 0; r < serveSetupReps; r++ {
		if svc.mgr != nil {
			if err := svc.mgr.Drain(context.Background()); err != nil {
				return err
			}
		}
		runtime.GC() // no repetition pays for the garbage of the one before
		w := begin(false)
		t0 := time.Now()
		store, err := jobs.Open(root, nil)
		if err != nil {
			return err
		}
		opens = append(opens, time.Since(t0).Seconds())
		mgr := jobs.NewManager(store, managerConfig)
		mgr.Start()
		rep.setup = append(rep.setup, w.end("setup").wall)
		svc.store, svc.mgr = store, mgr
	}
	rep.layerFixed["jobs.open_s"] = median(opens)
	rep.layerFixed["jobs.open_jobs"] = float64(len(svc.store.List()))
	runtime.GC()
	return nil
}

// runServeCached drives repeat traffic against the manager in a closed loop
// with one client: duplicate submits of cached specs (dedup alias writes,
// paced by aliasEvery), and in between, in a seeded 50/50 mix, SubmitIdem
// replays of prepared keys (read only) and result fetches of prepared jobs.
func runServeCached(cfg config, rep *report) error {
	root, err := storeRoot()
	if err != nil {
		return err
	}
	svc, err := prepareStore(cfg.seed, root)
	if err != nil {
		return err
	}
	if err := startService(rep, svc, root); err != nil {
		return err
	}
	defer svc.mgr.Drain(context.Background())
	// Separate streams, so which alias or read comes next does not depend
	// on how the two interleave.
	aliasRnd := rand.New(rand.NewSource(int64(splitmix(cfg.seed, 4_000_000))))
	readRnd := rand.New(rand.NewSource(int64(splitmix(cfg.seed, 4_000_001))))
	l := rep.spans
	start := time.Now()
	aliases := 0
	loop(cfg, func(i int) {
		op := i + 1
		rep.attempted++
		from := len(l.spans)
		var (
			s     opSample
			check func() error
		)
		switch {
		case time.Since(start) >= time.Duration(aliases)*aliasEvery:
			s, check = svc.alias(cfg, l, op, aliases, aliasRnd.Intn(len(svc.sources)))
			aliases++
		case readRnd.Intn(2) == 0:
			s, check = svc.replay(cfg, l, op, svc.keys[readRnd.Intn(len(svc.keys))])
		default:
			rec := svc.served[readRnd.Intn(len(svc.served))]
			s, check = svc.fetchOp(cfg, l, op, rec, rep)
		}
		if cfg.trace {
			// An op is one jobs call: its span is the op's only one.
			rep.observeSelf(l.spans[from:])
			rep.observe(l.spans[from].Name+"_s", l.spans[from].seconds())
			l.thin(op, from)
		}
		if err := check(); err != nil {
			rep.fail("%s op %d: %v", s.kind, op, err)
			return
		}
		rep.op(s)
	})
	fmt.Fprintf(os.Stderr, "perfbench: serve-cached: %d duplicate submits; the store ends with %d jobs, %.0f MB\n",
		aliases, len(svc.store.List()), storeMB(root))
	if cfg.trace {
		rep.layerFixed["jobs.submit_alias_p90_s"] = quantile(rep.kind("alias").walls.vals, 0.9)
		rep.layerFixed["jobs.write_syscalls_per_op"] = rep.perKind(func(ks *kindStats) (float64, bool) {
			return ks.io.syscw / float64(ks.walls.n), ks.walls.n > 0
		})
		rep.layerFixed["jobs.bytes_written_per_op"] = rep.perKind(func(ks *kindStats) (float64, bool) {
			return ks.io.wchar / float64(ks.walls.n), ks.walls.n > 0
		})
	}
	return nil
}

// alias is a duplicate submit of source k's spec under a fresh key: it must
// create a new dedup alias of that source, serving the source's bytes.
func (svc *service) alias(cfg config, l *spanLog, op, n, k int) (opSample, func() error) {
	key := fmt.Sprintf("run-%d", n)
	var (
		j       *jobs.Job
		created bool
		err     error
	)
	w := begin(cfg.trace)
	traced(cfg, l, op, "jobs.submit_alias", func() { j, created, err = svc.mgr.SubmitIdem(svc.sources[k].spec, key) })
	return w.end("alias"), func() error {
		if err != nil {
			return err
		}
		src, ok := j.DedupSource()
		if !created || !ok || src != svc.sources[k].id {
			return fmt.Errorf("duplicate submit: created=%v, alias of %q, want a new alias of %s", created, src, svc.sources[k].id)
		}
		got, _, pl, err := svc.fetch(j.ID)
		if err != nil {
			return err
		}
		if got.ID != svc.sources[k].id || !bytes.Equal(pl, svc.sources[k].placement) {
			return fmt.Errorf("alias %s serves %s's bytes, want %s's", j.ID, got.ID, svc.sources[k].id)
		}
		return nil
	}
}

// replay resubmits a prepared key's spec under the key: it must return the
// original job with created=false.
func (svc *service) replay(cfg config, l *spanLog, op int, rec keyRec) (opSample, func() error) {
	var (
		j       *jobs.Job
		created bool
		err     error
	)
	w := begin(cfg.trace)
	traced(cfg, l, op, "jobs.submit_replay", func() { j, created, err = svc.mgr.SubmitIdem(svc.sources[rec.src].spec, rec.key) })
	return w.end("replay"), func() error {
		if err != nil {
			return err
		}
		if created || j.ID != rec.id {
			return fmt.Errorf("replay of key %s: got %s (created=%v), want %s", rec.key, j.ID, created, rec.id)
		}
		return nil
	}
}

// fetchOp reads a prepared job's result: it must be its source's result,
// TEIL, area and placement bytes.
func (svc *service) fetchOp(cfg config, l *spanLog, op int, rec keyRec, rep *report) (opSample, func() error) {
	var (
		src  *jobs.Job
		info *jobs.ResultInfo
		pl   []byte
		err  error
	)
	w := begin(cfg.trace)
	traced(cfg, l, op, "jobs.resolve", func() { src, info, pl, err = svc.fetch(rec.id) })
	return w.end("fetch"), func() error {
		if err != nil {
			return err
		}
		want := svc.sources[rec.src]
		if src.ID != want.id || !bytes.Equal(pl, want.placement) || info.TEIL != want.info.TEIL || info.Area != want.info.Area {
			return fmt.Errorf("fetch %s: served %s's result, want %s's", rec.id, src.ID, want.id)
		}
		rep.result("fetch", info.TEIL, info.Area)
		return nil
	}
}

// traced runs f, inside a span when tracing.
func traced(cfg config, l *spanLog, op int, name string, f func()) {
	if cfg.trace {
		l.timed(op, name, f)
		return
	}
	f()
}

// fetch is what a client does to read a job's result: look the job up,
// follow a dedup alias to its source, and read result.json and the
// placement (as twserve's /result and /placement handlers do).
func (svc *service) fetch(id string) (*jobs.Job, *jobs.ResultInfo, []byte, error) {
	j, ok := svc.store.Get(id)
	if !ok {
		return nil, nil, nil, fmt.Errorf("job %s not found", id)
	}
	src, err := svc.store.ResolveResult(j)
	if err != nil {
		return nil, nil, nil, err
	}
	info, err := src.ReadResult()
	if err != nil {
		return nil, nil, nil, err
	}
	pl, err := os.ReadFile(src.PlacementPath())
	if err != nil {
		return nil, nil, nil, err
	}
	return src, info, pl, nil
}
