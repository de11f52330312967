package place

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/anneal"
	"repro/internal/estimate"
	"repro/internal/faultinject"
	"repro/internal/frame"
	"repro/internal/fsio"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/rng"
)

// The two checkpoint kinds are two frame blob formats: the magic, the
// header's first field, names the kind, and a decoder refuses any other
// version instead of misreading it. maxCheckpointPayload bounds the JSON
// payload a decoder will read, so a corrupted or hostile header cannot make
// LoadCheckpoint allocate without limit; 1 GiB is orders of magnitude above
// any realistic placement.
const maxCheckpointPayload = 1 << 30

var (
	checkpointFormat       = frame.Format{Magic: "twmc-checkpoint", Version: 1, Max: maxCheckpointPayload}
	temperCheckpointFormat = frame.Format{Magic: "twmc-temper-checkpoint", Version: 1, Max: maxCheckpointPayload}
)

// CostAccum carries the placement's incremental cost accumulators with
// exact bit patterns. Resuming restores these directly instead of
// recomputing: the floating-point sums depend on the whole move history, so
// a recomputed value could differ in the last ulp and send the resumed
// anneal down a different accept/reject path.
type CostAccum struct {
	C1   float64
	TEIL float64
	C2   int64
	C3   float64
}

// CheckpointOptions is the subset of Options a resumed run must replay
// exactly; it is stored in the checkpoint so resume does not depend on the
// caller repeating the original configuration.
type CheckpointOptions struct {
	Seed       uint64
	Ac         int
	R          float64
	Rho        float64
	Eta        float64
	UseDr      bool
	CoreAspect float64
	MaxSteps   int
	Params     estimate.Params
}

func snapshotOptions(o Options) CheckpointOptions {
	return CheckpointOptions{
		Seed:       o.Seed,
		Ac:         o.Ac,
		R:          o.R,
		Rho:        o.Rho,
		Eta:        o.Eta,
		UseDr:      o.UseDr,
		CoreAspect: o.CoreAspect,
		MaxSteps:   o.MaxSteps,
		Params:     o.Params,
	}
}

// options converts the snapshot back into run Options (checkpoint-control
// fields left zero; the caller sets them).
func (co CheckpointOptions) options() Options {
	return Options{
		Seed:       co.Seed,
		Ac:         co.Ac,
		R:          co.R,
		Rho:        co.Rho,
		Eta:        co.Eta,
		UseDr:      co.UseDr,
		CoreAspect: co.CoreAspect,
		MaxSteps:   co.MaxSteps,
		Params:     co.Params,
	}
}

// RunCheckpoint is the resumable state of one annealing run: the annealing
// controller (temperature, counters, acceptance-draw RNG), the
// move-generation RNG, the exact cost accumulators, the current and
// best-so-far placements, and the run history. A tempering checkpoint
// carries one per rung; a single-run Checkpoint carries the same fields
// inline (see Checkpoint.run).
type RunCheckpoint struct {
	Ctl    anneal.ControllerState
	Src    rng.State
	Cost   CostAccum
	States []CellState
	// Best is the best-so-far placement (by full cost, sampled at step
	// boundaries) and BestCost its cost; BestValid is false until the first
	// completed step.
	Best      []CellState
	BestCost  float64
	BestValid bool
	Attempts  int64
	History   []StepStat
}

// Checkpoint is a complete resumable snapshot of a single Stage 1 annealing
// run. Restoring it replays the remaining move sequence bit-for-bit (see
// DESIGN.md §8). The per-run fields are RunCheckpoint's, inline and in the
// order the on-disk format fixes.
type Checkpoint struct {
	Version int
	Circuit string
	Opt     CheckpointOptions
	Core    geom.Rect
	// ST is the temperature scale factor computed at run start; it depends
	// on the initial random placement, so it must be stored rather than
	// recomputed from the resumed placement.
	ST  float64
	P2  float64
	Ctl anneal.ControllerState
	Src rng.State
	// InnerDone is the number of inner-loop iterations already executed in
	// the current temperature step, or -1 when the checkpoint was taken at
	// an outer-step boundary (after EndStep).
	InnerDone int
	Attempts  int64
	Cost      CostAccum
	States    []CellState
	Best      []CellState
	BestCost  float64
	BestValid bool
	History   []StepStat
}

// run returns the checkpoint's per-run state.
func (ck *Checkpoint) run() *RunCheckpoint {
	return &RunCheckpoint{
		Ctl: ck.Ctl, Src: ck.Src, Cost: ck.Cost, States: ck.States,
		Best: ck.Best, BestCost: ck.BestCost, BestValid: ck.BestValid,
		Attempts: ck.Attempts, History: ck.History,
	}
}

// TemperCheckpoint is a complete resumable snapshot of a parallel-tempering
// Stage 1 run: every replica's state plus the shared exchange-decision RNG
// and exchange counters. Snapshots are taken at outer-step boundaries (after
// the exchange pass), so resuming re-enters the lockstep loop exactly where
// the original run would have.
type TemperCheckpoint struct {
	Version  int
	Circuit  string
	Opt      CheckpointOptions
	Replicas int
	Core     geom.Rect
	// ST and P2 are shared ladder-wide (calibrated once on replica 0).
	ST   float64
	P2   float64
	XSrc rng.State
	Reps []RunCheckpoint

	ExchAttempts int64
	ExchAccepts  int64
}

// validate checks a single-run checkpoint against the circuit: the shared
// header, the inner-iteration index, then the run.
func (ck *Checkpoint) validate(c *netlist.Circuit) error {
	if err := validateHeader(c, "checkpoint", ck.Version, checkpointFormat.Version, ck.Circuit, ck.Core, ck.ST, ck.P2); err != nil {
		return err
	}
	if ck.InnerDone < -1 {
		return fmt.Errorf("place: checkpoint inner-iteration index %d out of range", ck.InnerDone)
	}
	return ck.run().validate(c, "checkpoint")
}

// validate checks a tempering checkpoint against the circuit: the shared
// header, the ladder size, then every rung as a run.
func (ck *TemperCheckpoint) validate(c *netlist.Circuit) error {
	if err := validateHeader(c, "tempering checkpoint", ck.Version, temperCheckpointFormat.Version, ck.Circuit, ck.Core, ck.ST, ck.P2); err != nil {
		return err
	}
	if ck.Replicas < 2 || ck.Replicas != len(ck.Reps) {
		return fmt.Errorf("place: tempering checkpoint carries %d replica states for %d replicas",
			len(ck.Reps), ck.Replicas)
	}
	for k := range ck.Reps {
		if err := ck.Reps[k].validate(c, fmt.Sprintf("tempering checkpoint replica %d", k)); err != nil {
			return err
		}
	}
	return nil
}

// validateHeader checks the fields both checkpoint kinds share.
func validateHeader(c *netlist.Circuit, who string, version, want int, circuit string, core geom.Rect, st, p2 float64) error {
	if version != want {
		return fmt.Errorf("place: %s version %d, want %d", who, version, want)
	}
	if circuit != c.Name {
		return fmt.Errorf("place: %s is for circuit %q, not %q", who, circuit, c.Name)
	}
	if core.Empty() {
		return fmt.Errorf("place: %s has an empty core", who)
	}
	if st <= 0 || math.IsNaN(st) || math.IsInf(st, 0) {
		return fmt.Errorf("place: %s scale factor %v out of range", who, st)
	}
	if math.IsNaN(p2) || math.IsInf(p2, 0) {
		return fmt.Errorf("place: %s carries non-finite p2 %v", who, p2)
	}
	return nil
}

// validate checks one run's state against the circuit; who names the run
// in errors.
func (r *RunCheckpoint) validate(c *netlist.Circuit, who string) error {
	if len(r.States) != len(c.Cells) {
		return fmt.Errorf("place: %s has %d cell states, circuit has %d cells", who, len(r.States), len(c.Cells))
	}
	if r.BestValid && len(r.Best) != len(c.Cells) {
		return fmt.Errorf("place: %s best placement has %d states, circuit has %d cells", who, len(r.Best), len(c.Cells))
	}
	for _, v := range []float64{r.Cost.C1, r.Cost.TEIL, r.Cost.C3, r.Ctl.T} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("place: %s carries non-finite value %v", who, v)
		}
	}
	if err := validateCellStates(c, who+" state", r.States); err != nil {
		return err
	}
	if r.BestValid {
		return validateCellStates(c, who+" best", r.Best)
	}
	return nil
}

// validateCellStates checks per-cell states from a checkpoint against the
// circuit (checkCellState), so corrupt snapshots surface as errors rather
// than panics.
func validateCellStates(c *netlist.Circuit, who string, states []CellState) error {
	for i := range states {
		if err := checkCellState(c, i, &states[i]); err != nil {
			return fmt.Errorf("place: %s cell %q: %w", who, c.Cells[i].Name, err)
		}
	}
	return nil
}

// checkCellState is the one check of a loaded state of cell i, shared by
// checkpoints and ReadPlacement: a valid orientation and instance, a finite
// non-negative aspect that, for a custom-shape instance, the instance's
// ClampAspect leaves unchanged (every producer clamps), and one unit
// assignment per uncommitted pin unit, on an edge 0..3 at one of the cell's
// sites per edge.
func checkCellState(c *netlist.Circuit, i int, st *CellState) error {
	cl := &c.Cells[i]
	if st.Orient < 0 || st.Orient >= geom.NumOrients {
		return fmt.Errorf("bad orientation %d", st.Orient)
	}
	if st.Instance < 0 || st.Instance >= len(cl.Instances) {
		return fmt.Errorf("no instance %d", st.Instance)
	}
	if math.IsNaN(st.Aspect) || math.IsInf(st.Aspect, 0) || st.Aspect < 0 {
		return fmt.Errorf("bad aspect %v", st.Aspect)
	}
	if in := &cl.Instances[st.Instance]; in.IsCustomShape() && in.ClampAspect(st.Aspect) != st.Aspect {
		return fmt.Errorf("aspect %v outside instance %d's range", st.Aspect, st.Instance)
	}
	if n := len(buildUnits(c, cl)); len(st.Units) != n {
		return fmt.Errorf("%d unit assignments, cell has %d units", len(st.Units), n)
	}
	for u, a := range st.Units {
		if a.Edge < 0 || a.Edge > 3 || a.Site < 0 || a.Site >= sitesPerEdge(cl) {
			return fmt.Errorf("unit %d: bad assignment (%d,%d)", u, a.Edge, a.Site)
		}
	}
	return nil
}

// AnyCheckpoint is a checkpoint of either kind: exactly one field is
// non-nil. DecodeCheckpoint decides which from the header magic, and Resume
// dispatches on it, so callers hand checkpoints around without looking.
type AnyCheckpoint struct {
	Single *Checkpoint
	Temper *TemperCheckpoint
}

// Validate checks a decoded checkpoint against the circuit it is about to
// be applied to. It guards every invariant the resume path relies on, so a
// truncated, corrupted, or mismatched checkpoint surfaces as an error
// instead of an index panic deep in the placement kernel.
func (a *AnyCheckpoint) Validate(c *netlist.Circuit) error {
	switch {
	case a == nil || (a.Single == nil) == (a.Temper == nil):
		return fmt.Errorf("place: checkpoint must hold exactly one of a single-run or a tempering snapshot")
	case a.Temper != nil:
		return a.Temper.validate(c)
	}
	return a.Single.validate(c)
}

// Options returns the annealing parameters the checkpointed run was started
// with. A resumed flow replays them, Stage 2's seed derivation included.
func (a *AnyCheckpoint) Options() CheckpointOptions {
	if a.Temper != nil {
		return a.Temper.Opt
	}
	return a.Single.Opt
}

// String describes the checkpoint for log lines: the circuit, the
// temperature step it was taken at, and the Stage 1 mode it resumes.
func (a *AnyCheckpoint) String() string {
	if t := a.Temper; t != nil {
		step := 0
		if len(t.Reps) > 0 {
			step = t.Reps[0].Ctl.Step
		}
		return fmt.Sprintf("%s at step %d (parallel tempering, %d replicas)", t.Circuit, step, t.Replicas)
	}
	return fmt.Sprintf("%s at step %d (single anneal)", a.Single.Circuit, a.Single.Ctl.Step)
}

// kind returns the checkpoint's format, the snapshot it frames, and the
// snapshot's own Version.
func (a *AnyCheckpoint) kind() (frame.Format, any, int) {
	if a.Temper != nil {
		return temperCheckpointFormat, a.Temper, a.Temper.Version
	}
	return checkpointFormat, a.Single, a.Single.Version
}

// EncodeCheckpoint writes ck to w as a frame blob: the header line
//
//	MAGIC VERSION CRC32C PAYLOADLEN
//
// then the JSON payload. MAGIC is twmc-checkpoint for a single run and
// twmc-temper-checkpoint for a tempering ladder. The checksum
// (CRC-32/Castagnoli of the payload bytes) lets the decoder reject torn or
// bit-rotted files. A snapshot whose own Version is not its format's is
// refused, since DecodeCheckpoint would refuse the file.
func EncodeCheckpoint(w io.Writer, ck *AnyCheckpoint) error {
	f, v, version := ck.kind()
	if version != f.Version {
		return fmt.Errorf("place: encode checkpoint: payload version %d, format version %d", version, f.Version)
	}
	if err := f.WriteBlob(w, v); err != nil {
		return fmt.Errorf("place: encode checkpoint: %w", err)
	}
	return nil
}

// DecodeCheckpoint reads a checkpoint written by EncodeCheckpoint,
// whichever its kind: the magic picks the format, and frame.ReadBlob checks
// the header, length, checksum and strict JSON payload, reading never past
// the payload the header declares. The payload's own Version must match the
// header's. It never panics on malformed input; every defect is a
// descriptive error.
func DecodeCheckpoint(r io.Reader) (*AnyCheckpoint, error) {
	br := bufio.NewReader(r)
	ck := &AnyCheckpoint{}
	magic := temperCheckpointFormat.Magic + " "
	if head, _ := br.Peek(len(magic)); string(head) == magic {
		ck.Temper = &TemperCheckpoint{}
	} else {
		ck.Single = &Checkpoint{}
	}
	f, v, _ := ck.kind()
	if err := f.ReadBlob(br, v); err != nil {
		return nil, fmt.Errorf("place: checkpoint: %w", err)
	}
	if _, _, version := ck.kind(); version != f.Version {
		return nil, fmt.Errorf("place: checkpoint header version %d disagrees with payload version %d",
			f.Version, version)
	}
	return ck, nil
}

// SaveCheckpoint writes ck to path atomically and durably via
// fsio.WriteFileAtomic: encoded to memory first, then temp file + fsync +
// rename + directory fsync. A crash mid-write leaves either the previous
// checkpoint or the new one, never a torn file. The faultinject point
// place.checkpoint.save fails the save before any bytes move.
func SaveCheckpoint(path string, ck *AnyCheckpoint) error {
	if err := faultinject.Err(faultinject.PlaceCheckpointSave); err != nil {
		return fmt.Errorf("place: save checkpoint: %w", err)
	}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, ck); err != nil {
		return err
	}
	if err := fsio.WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("place: save checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and decodes the checkpoint at path, whichever its
// kind. The faultinject point place.checkpoint.load fails the load before
// the file is opened.
func LoadCheckpoint(path string) (*AnyCheckpoint, error) {
	if err := faultinject.Err(faultinject.PlaceCheckpointLoad); err != nil {
		return nil, fmt.Errorf("place: load checkpoint: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("place: load checkpoint: %w", err)
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}
