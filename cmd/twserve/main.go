// Command twserve runs the crash-safe placement job service: an HTTP front
// end over the durable job store and worker pool of internal/jobs. Jobs are
// twmc placement runs described by a JSON spec; every state transition is
// journaled durably, long anneals checkpoint periodically, and a killed or
// drained server resumes interrupted jobs on the next start — producing
// placements byte-identical to uninterrupted runs (DESIGN.md §10).
//
// Usage:
//
//	twserve -store jobs.d [-addr localhost:8077] [flags]
//
// API (see README "Running as a service" for curl examples):
//
//	POST /jobs              submit a job spec      → 201 {"id":"j000001",...}
//	                        idempotent replay      → 200 + the original job
//	                        key reused, new spec   → 409
//	                        tenant over quota      → 429 + Retry-After + retry budget
//	                        queue full             → 429 + Retry-After
//	                        draining               → 503
//	                        node saturated, peers alive → 503 + Retry-After
//	                        overloaded (weighted shed)  → 503 + Retry-After
//	                        disk full/read-only    → 507
//	                        not application/json   → 415
//	                        spec over 8 MiB        → 413
//
// Exactly-once submission (DESIGN.md §16): an Idempotency-Key header makes
// the submit retry-safe — an exact retry (same key, same spec) returns the
// original job with 200 instead of creating a duplicate. Independently,
// every accepted spec is resolved against a content-digest index: an
// identical spec already executing or already succeeded is registered as a
// terminal "dedup" alias serving the shared result, without re-running the
// anneal (the cache-hit submit returns in milliseconds; see README
// "Idempotent retries and the result cache").
//
// Multi-tenancy: the X-Tenant header (or the spec's "tenant" field) names
// the submitting tenant; -tenants loads per-tenant weights and quotas (see
// README "Multi-tenant operation"). Quota refusals are 429s with a computed
// Retry-After and the tenant's remaining retry budget — distinct from the
// capacity 503s above.
//
//	POST /jobs/batch        submit an array of specs, each optionally
//	                        wrapped with "idempotency_key"; per-item
//	                        outcomes (200 all accepted, 207 otherwise)
//	GET  /jobs              list jobs
//	GET  /jobs/status?ids=a,b  bulk status in one round trip
//	GET  /jobs/{id}         spec + full status journal
//	GET  /jobs/{id}/result  final metrics + DRC outcome
//	GET  /jobs/{id}/placement  final placement (plain text, reloadable)
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /healthz           process liveness
//	GET  /readyz            accepting jobs? (503 while draining or disk-full)
//	GET  /metrics           live metrics (Prometheus text format)
//
// SIGTERM or SIGINT starts a graceful drain: /readyz flips to 503, new
// submissions are rejected, running jobs checkpoint and journal themselves
// back to queued, and the process exits 0 within the -drain budget. In
// fleet mode (-node-id) the drain also releases every held job lease, so
// peer instances reclaim this node's work immediately instead of waiting
// out the lease TTL.
//
// Fleet mode: several twserve instances may share one -store. Each claims
// jobs under a TTL lease with a monotonic fencing token; every durable
// write validates the token, so a stalled instance can never clobber work a
// peer reclaimed (see README "Running a fleet" and DESIGN.md §13).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/jobs"
	"repro/internal/scrub"
	"repro/internal/telcli"
	"repro/internal/telemetry"
)

// maxSpecBytes bounds a submitted spec (inline netlists included).
const maxSpecBytes = 8 << 20

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "localhost:8077", "HTTP listen address")
		storeDir  = flag.String("store", "", "job store directory (created if missing; required)")
		workers   = flag.Int("workers", 0, "concurrent job executors (0 = default 2)")
		queue     = flag.Int("queue", 0, "queued-job bound before submissions get 429 (0 = default 64)")
		retries   = flag.Int("retries", 0, "default retry budget for transient job failures (0 = default 1)")
		ckEvery   = flag.Int("checkpoint-every", 0, "temperature steps between job checkpoints (0 = default 5)")
		drainT    = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget after SIGTERM/SIGINT")
		nodeID    = flag.String("node-id", "", "fleet node ID; non-empty switches the store to multi-instance lease mode (several twserve processes may share one -store)")
		peerDirs  = flag.String("peer-dirs", "", "comma-separated additional store roots whose node heartbeats count as live peers (for load shedding)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "fleet job-lease TTL; a node silent this long loses its jobs to peers (0 = default 3s)")
		leaseRet  = flag.Duration("lease-retention", 0, "GC lease litter (expired node heartbeats, terminal jobs' superseded claim files) older than this on startup (0 = disabled)")
		retention = flag.Duration("retention", 0, "delete terminal job dirs whose last transition is older than this (0 = keep forever; dedup sources with live aliases and the newest job dir always survive)")
		scrubEvry = flag.Duration("scrub-every", 0, "background store-integrity sweep cadence (0 = disabled); defects are logged and counted in /metrics")
		tenantsF  = flag.String("tenants", "", "tenant policy config file: per-tenant weight, rate, burst, max_inflight, retry_budget (empty = no quotas)")
		invar     = flag.Bool("invariants", false, "enable runtime invariant checks (journal state machine, cost drift); violations are logged and counted in /metrics")
		faults    = flag.String("faults", "", "arm deterministic fault injection with this rule spec (e.g. 'fsio.write:err=enospc,after=3'); chaos testing only")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for probabilistic fault rules")
	)
	tf := telcli.Register(flag.CommandLine)
	flag.Parse()
	if *storeDir == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: twserve -store DIR [flags]")
		flag.PrintDefaults()
		return 2
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "twserve: "+format+"\n", args...)
	}

	rt, err := tf.Start("twserve", false)
	if err != nil {
		logf("%v", err)
		return 1
	}
	// A server always carries a live registry so /metrics works without
	// telemetry flags; -metrics additionally snapshots it to a file at exit.
	rt.EnsureRegistry()
	// Close unconditionally (it is idempotent): the early error return on a
	// listener failure and a timed-out drain must still flush the trace sink
	// and metrics snapshot.
	defer rt.Close()
	build := telemetry.RegisterBuildInfo(rt.Registry(), *nodeID)

	if *invar {
		invariant.Enable(invariant.Options{Logf: logf, Registry: rt.Registry()})
		defer invariant.Disable()
	}
	if *faults != "" {
		rules, err := faultinject.ParseRules(*faults)
		if err != nil {
			logf("%v", err)
			return 2
		}
		pl := faultinject.NewPlane(*faultSeed, rules...)
		pl.SetRegistry(rt.Registry())
		if err := pl.Arm(); err != nil {
			logf("%v", err)
			return 1
		}
		defer faultinject.Disarm()
		logf("fault injection armed: %s (seed %d)", *faults, *faultSeed)
	}

	var tcfg *jobs.TenantConfig
	if *tenantsF != "" {
		f, err := os.Open(*tenantsF)
		if err != nil {
			logf("%v", err)
			return 2
		}
		tcfg, err = jobs.ParseTenantConfig(f)
		f.Close()
		if err != nil {
			logf("%v", err)
			return 2
		}
		logf("tenant config %s: %d named tenant(s) + default policy", *tenantsF, len(tcfg.Names()))
	}

	st, err := jobs.Open(*storeDir, logf)
	if err != nil {
		logf("%v", err)
		return 1
	}
	if n := st.Quarantined(); n > 0 {
		logf("store: quarantined %d damaged file(s)/dir(s); see %s", n, *storeDir)
	}
	var peers []string
	if *peerDirs != "" {
		peers = strings.Split(*peerDirs, ",")
	}
	mgr := jobs.NewManager(st, jobs.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		Retries:         *retries,
		CheckpointEvery: *ckEvery,
		Tel:             rt.Tracer,
		Logf:            logf,
		NodeID:          *nodeID,
		LeaseTTL:        *leaseTTL,
		PeerDirs:        peers,
		Tenants:         tcfg,
		LeaseRetention:  *leaseRet,
		Retention:       *retention,
		ScrubEvery:      *scrubEvry,
		ScrubFunc: func(root string) (int, error) {
			rep, err := scrub.Scan([]string{root}, scrub.Options{Logf: logf})
			if err != nil {
				return 0, err
			}
			return len(rep.Defects), nil
		},
	})
	if *nodeID != "" {
		ttl := *leaseTTL
		if ttl <= 0 {
			ttl = jobs.DefaultLeaseTTL
		}
		logf("fleet mode: node %q, lease TTL %v, %d peer dir(s)", *nodeID, ttl, len(peers))
	}
	if n := mgr.Start(); n > 0 {
		logf("recovered %d interrupted job(s)", n)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("%v", err)
		return 1
	}
	// The one stdout line, so wrappers (and the smoke test) can find the
	// bound port when -addr asked for :0.
	fmt.Printf("twserve: listening on http://%s (store %s)\n", ln.Addr(), *storeDir)

	srv := &server{store: st, mgr: mgr, rt: rt, build: build, logf: logf}
	srv.ready.Store(true)
	httpSrv := &http.Server{Handler: srv.mux()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logf("serve: %v", err)
		return 1
	case s := <-sig:
		logf("%v: draining (budget %v)", s, *drainT)
	}
	srv.ready.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	code := 0
	if err := mgr.Drain(ctx); err != nil {
		logf("drain: %v", err)
		code = 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		logf("shutdown: %v", err)
		code = 1
	}
	if err := rt.Close(); err != nil {
		logf("telemetry: %v", err)
		code = 1
	}
	logf("drained; exiting")
	return code
}

// server holds the HTTP side of the service.
type server struct {
	store *jobs.Store
	mgr   *jobs.Manager
	rt    *telcli.Runtime
	build telemetry.BuildInfo
	ready atomic.Bool
	logf  func(string, ...any)
}

// mux routes the API (Go 1.22 method+pattern routing).
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("POST /jobs/batch", s.handleBatch)
	mux.HandleFunc("GET /jobs", s.handleList)
	// Literal segments outrank wildcards in Go's ServeMux, so /jobs/status
	// coexists with /jobs/{id}.
	mux.HandleFunc("GET /jobs/status", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/placement", s.handlePlacement)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.rt.MountMetrics(mux, s.build, s.logf) // GET /metrics, GET /healthz
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if s.mgr.DiskFull() {
			http.Error(w, "store filesystem full or read-only", http.StatusServiceUnavailable)
			return
		}
		if s.mgr.ShedHint() {
			// Load balancers polling readyz take a saturated fleet member
			// out of rotation while live peers can absorb the work.
			w.Header().Set("Retry-After", "1")
			http.Error(w, "node saturated; peers alive", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	return mux
}

// jobView is the status summary returned by list/submit/get.
type jobView struct {
	ID      string     `json:"id"`
	Name    string     `json:"name,omitempty"`
	Tenant  string     `json:"tenant,omitempty"`
	State   jobs.State `json:"state"`
	Detail  string     `json:"detail,omitempty"`
	Attempt int        `json:"attempt,omitempty"`
	Updated time.Time  `json:"updated"`
	// Digest is the spec's server-stamped content digest; Source, on a
	// dedup alias, names the executing job whose result this one serves.
	Digest string `json:"digest,omitempty"`
	Source string `json:"source,omitempty"`
}

func view(j *jobs.Job) jobView {
	rec := j.Last()
	v := jobView{
		ID:      j.ID,
		Name:    j.Spec.Name,
		Tenant:  j.Spec.Tenant,
		State:   rec.State,
		Detail:  rec.Detail,
		Attempt: rec.Attempt,
		Updated: rec.Time,
		Digest:  j.Spec.Digest,
	}
	if src, ok := j.DedupSource(); ok {
		v.Source = src
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeRequest decodes a submit request's JSON body into v. It refuses to
// decode anything not declared as JSON — arbitrary payloads (forms,
// multipart, octet streams) get an explicit 415, not a decode attempt that
// happens to fail — then a body over maxSpecBytes is a 413 ("<what>
// exceeds N bytes") and an undecodable one, or one with unknown fields, a
// 400 ("bad <what>: ..."). Reports false after writing the error response.
func decodeRequest(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || mt != "application/json" {
		httpError(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("submit requires Content-Type: application/json"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("%s exceeds %d bytes", what, tooBig.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err))
		return false
	}
	return true
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	if !decodeRequest(w, r, "spec", &spec) {
		return
	}
	tenant, ok := headerTenant(w, r)
	if !ok {
		return
	}
	if err := applyTenant(&spec, tenant); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	key, ok := idemKey(w, r)
	if !ok {
		return
	}
	j, created, ref := s.submit(spec, key)
	if ref != nil {
		s.writeRefusal(w, ref)
		return
	}
	if !created {
		s.logf("idempotent replay of %s (key %.40q)", j.ID, key)
		writeJSON(w, http.StatusOK, view(j))
		return
	}
	s.logf("accepted %s (%s, tenant %s)", j.ID, circuitLabel(&j.Spec), tenantLabel(&j.Spec))
	writeJSON(w, http.StatusCreated, view(j))
}

// maxIdemKeyBytes bounds a client idempotency key; the durable index hashes
// the key, so the cap only guards against abusive headers.
const maxIdemKeyBytes = 256

// idemKey extracts and validates the Idempotency-Key header ("" = none).
// Reports false after writing an error response.
func idemKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.Header.Get("Idempotency-Key")
	if len(key) > maxIdemKeyBytes {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("Idempotency-Key exceeds %d bytes", maxIdemKeyBytes))
		return "", false
	}
	return key, true
}

// refusal is the machine-readable shape of every refused submission, on the
// single-submit response body and per batch item. Quota 429s carry the
// tenant, the reason, a Retry-After (also sent as the HTTP header), and the
// tenant's remaining retry budget; capacity 503s carry reason and
// Retry-After. Clients never have to parse the error text.
type refusal struct {
	Status      int    `json:"status"`
	Error       string `json:"error"`
	Tenant      string `json:"tenant,omitempty"`
	Reason      string `json:"reason,omitempty"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
	RetryBudget *int   `json:"retry_budget,omitempty"`
}

// submit runs one spec through the manager and maps the refusal surface to
// HTTP semantics: 409 for an idempotency key reused with a different spec,
// 429 + Retry-After for quota refusals (tenant over rate or in-flight
// limits) and a full backlog, 503 + Retry-After for capacity shedding
// (fleet try-a-peer, weighted overload), 503 while draining, 507 while the
// store filesystem is unwritable, 400 otherwise. Single submit and batch
// items share this path, so their outcomes are always consistent. created
// is false on an idempotent replay (the HTTP layer's 200-instead-of-201).
func (s *server) submit(spec jobs.Spec, key string) (*jobs.Job, bool, *refusal) {
	j, created, err := s.mgr.SubmitIdem(spec, key)
	if err == nil {
		return j, created, nil
	}
	ref := &refusal{Error: err.Error()}
	var quota *jobs.ErrOverQuota
	var full *jobs.ErrQueueFull
	var shed *jobs.ErrShed
	var idem *jobs.ErrIdemConflict
	switch {
	case errors.As(err, &idem):
		ref.Status = http.StatusConflict
		ref.Reason = "idempotency_key_conflict"
	case errors.As(err, &quota):
		ref.Status = http.StatusTooManyRequests
		ref.Tenant = quota.Tenant
		ref.Reason = "quota_" + quota.Reason
		ref.RetryAfterS = retrySeconds(quota.RetryAfter)
		budget := quota.RetryBudget
		ref.RetryBudget = &budget
	case errors.As(err, &full):
		ref.Status = http.StatusTooManyRequests
		ref.Reason = "queue_full"
		ref.RetryAfterS = retrySeconds(full.RetryAfter)
	case errors.As(err, &shed):
		ref.Status = http.StatusServiceUnavailable
		ref.Tenant = shed.Tenant
		ref.Reason = "shed_" + shed.Reason
		ref.RetryAfterS = retrySeconds(shed.RetryAfter)
	case errors.Is(err, jobs.ErrDraining):
		ref.Status = http.StatusServiceUnavailable
		ref.Reason = "draining"
	case errors.Is(err, jobs.ErrDiskFull):
		ref.Status = http.StatusInsufficientStorage
		ref.Reason = "disk_full"
	default:
		ref.Status = http.StatusBadRequest
	}
	return nil, false, ref
}

// retrySeconds renders a Retry-After duration in whole seconds, >= 1 (the
// manager already clamps its hints, but an HTTP Retry-After of 0 would be a
// malformed backoff signal, so it is floored here too).
func retrySeconds(d time.Duration) int {
	if sec := int(d / time.Second); sec > 1 {
		return sec
	}
	return 1
}

// writeRefusal sends one refusal, mirroring RetryAfterS into the standard
// Retry-After header.
func (s *server) writeRefusal(w http.ResponseWriter, ref *refusal) {
	if ref.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ref.RetryAfterS))
	}
	writeJSON(w, ref.Status, ref)
}

// headerTenant returns the request's X-Tenant header ("" = none). A header
// that is not a valid tenant name is a 400; reports false after writing it.
func headerTenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	h := r.Header.Get("X-Tenant")
	if h != "" && !jobs.ValidTenantName(h) {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("bad X-Tenant %.80q (want 1-64 chars of [A-Za-z0-9._-])", h))
		return "", false
	}
	return h, true
}

// applyTenant resolves a submission's tenant from the X-Tenant header
// (headerTenant) and the spec's tenant field. The header wins when the spec
// is silent; a mismatch between the two is an error (a 400), not a silent
// override.
func applyTenant(spec *jobs.Spec, header string) error {
	if header == "" {
		return nil
	}
	if spec.Tenant != "" && spec.Tenant != header {
		return fmt.Errorf("spec tenant %q conflicts with X-Tenant %q", spec.Tenant, header)
	}
	spec.Tenant = header
	return nil
}

func tenantLabel(spec *jobs.Spec) string {
	if spec.Tenant == "" {
		return jobs.DefaultTenant
	}
	return spec.Tenant
}

// batchSubmit is one batch element: a job spec, optionally wrapped with a
// per-item idempotency key. The spec's fields are inlined (embedded), so a
// plain array of bare specs keeps decoding unchanged.
type batchSubmit struct {
	jobs.Spec
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// handleBatch submits an array of specs in one request. Each element goes
// through exactly the same submit path as a single POST /jobs — admission
// quotas, queue backpressure, load shedding, idempotency keys, and dedupe
// are all applied per item, so one batch can mix 201s, replayed 200s, quota
// 429s, and shed 503s with the same precedence a client would see
// submitting serially. All accepted → 200 with per-item 201/200 statuses;
// any refusal → 207 with per-item details (including each refused item's
// Retry-After and retry budget) and the largest Retry-After as the
// response header.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var specs []batchSubmit
	if !decodeRequest(w, r, "batch", &specs) {
		return
	}
	if len(specs) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	type batchItem struct {
		ID    string     `json:"id,omitempty"`
		State jobs.State `json:"state,omitempty"`
		refusal
	}
	tenant, ok := headerTenant(w, r)
	if !ok {
		return
	}
	items := make([]batchItem, len(specs))
	accepted, maxRetry := 0, 0
	for i, item := range specs {
		spec := item.Spec
		if len(item.IdempotencyKey) > maxIdemKeyBytes {
			items[i] = batchItem{refusal: refusal{
				Status: http.StatusBadRequest,
				Error:  fmt.Sprintf("idempotency_key exceeds %d bytes", maxIdemKeyBytes),
			}}
			continue
		}
		if err := applyTenant(&spec, tenant); err != nil {
			items[i] = batchItem{refusal: refusal{Status: http.StatusBadRequest, Error: err.Error()}}
			continue
		}
		j, created, ref := s.submit(spec, item.IdempotencyKey)
		if ref != nil {
			items[i] = batchItem{refusal: *ref}
			if ref.RetryAfterS > maxRetry {
				maxRetry = ref.RetryAfterS
			}
			continue
		}
		st := http.StatusCreated
		if !created {
			st = http.StatusOK
		}
		items[i] = batchItem{ID: j.ID, State: j.Last().State, refusal: refusal{Status: st}}
		accepted++
	}
	s.logf("batch: accepted %d/%d job(s)", accepted, len(specs))
	status := http.StatusOK
	if accepted < len(specs) {
		status = http.StatusMultiStatus
		if maxRetry > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(maxRetry))
		}
	}
	writeJSON(w, status, items)
}

// handleStatus returns the status of many jobs in one round trip:
// GET /jobs/status?ids=j000001,j000002. Unknown IDs come back as per-item
// errors, not a request-level 404.
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	idsParam := r.URL.Query().Get("ids")
	if idsParam == "" {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("ids query parameter required (comma-separated job IDs)"))
		return
	}
	type statusItem struct {
		jobView
		Error string `json:"error,omitempty"`
	}
	ids := strings.Split(idsParam, ",")
	items := make([]statusItem, len(ids))
	for i, id := range ids {
		j, ok := s.store.Lookup(id)
		if !ok {
			items[i] = statusItem{jobView: jobView{ID: id}, Error: "no such job"}
			continue
		}
		items[i] = statusItem{jobView: view(j)}
	}
	writeJSON(w, http.StatusOK, items)
}

func circuitLabel(spec *jobs.Spec) string {
	if spec.Preset != "" {
		return "preset " + spec.Preset
	}
	return "inline netlist"
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	list := s.store.List()
	views := make([]jobView, len(list))
	for i, j := range list {
		views[i] = view(j)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, ok := s.store.Lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
	}
	return j, ok
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, struct {
		jobView
		Spec    jobs.Spec     `json:"spec"`
		History []jobs.Record `json:"history"`
	}{view(j), j.Spec, j.History()})
}

// resultSource resolves the job whose artifacts serve j: j itself normally,
// the linked source for a dedup alias (whose own directory holds no result
// bytes). Reports false after writing an error response.
func (s *server) resultSource(w http.ResponseWriter, j *jobs.Job) (*jobs.Job, bool) {
	src, err := s.store.ResolveResult(j)
	if err != nil {
		// A dangling or chained dedup link is store corruption (the
		// scrubber's department), not a client error.
		httpError(w, http.StatusInternalServerError, err)
		return nil, false
	}
	return src, true
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	src, ok := s.resultSource(w, j)
	if !ok {
		return
	}
	info, err := src.ReadResult()
	if err != nil {
		if os.IsNotExist(err) {
			httpError(w, http.StatusNotFound,
				fmt.Errorf("job %s has no result yet (state %s)", j.ID, src.Last().State))
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	src, ok := s.resultSource(w, j)
	if !ok {
		return
	}
	f, err := os.Open(src.PlacementPath())
	if err != nil {
		if os.IsNotExist(err) {
			httpError(w, http.StatusNotFound,
				fmt.Errorf("job %s has no placement (state %s)", j.ID, src.Last().State))
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.Copy(w, f)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	canceled, err := s.mgr.Cancel(j.ID)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"canceled": canceled,
		"state":    j.Last().State,
	})
}
