package place

import (
	"bufio"
	"bytes"
	"encoding/json"
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

// CheckpointVersion is the current checkpoint format version. Decoders
// reject versions they do not understand instead of misreading them.
const CheckpointVersion = 1

// checkpointMagic is the first field of the header line.
const checkpointMagic = "twmc-checkpoint"

// maxCheckpointPayload bounds the JSON payload a decoder will read, so a
// corrupted or hostile header cannot make LoadCheckpoint allocate without
// limit. 1 GiB is orders of magnitude above any realistic placement.
const maxCheckpointPayload = 1 << 30

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

// Checkpoint is a complete resumable snapshot of a Stage 1 annealing run:
// the annealing controller (temperature, counters, acceptance-draw RNG),
// the move-generation RNG, the current and best-so-far placements, the
// exact cost accumulators, and the run history. Restoring it replays the
// remaining move sequence bit-for-bit (see DESIGN.md §8).
type Checkpoint struct {
	Version int
	Circuit string
	Opt     CheckpointOptions
	Core    geom.Rect
	// ST is the temperature scale factor computed at run start; it depends
	// on the initial random placement, so it must be stored rather than
	// recomputed from the resumed placement.
	ST float64
	P2 float64
	// Ctl and Src are the annealing controller and move-generation RNG
	// states.
	Ctl anneal.ControllerState
	Src rng.State
	// InnerDone is the number of inner-loop iterations already executed in
	// the current temperature step, or -1 when the checkpoint was taken at
	// an outer-step boundary (after EndStep).
	InnerDone int
	Attempts  int64
	Cost      CostAccum
	States    []CellState
	// Best is the best-so-far placement (by full cost, sampled at step
	// boundaries) and BestCost its cost; BestValid is false until the first
	// completed step.
	Best      []CellState
	BestCost  float64
	BestValid bool
	History   []StepStat
}

// Validate checks a decoded checkpoint against the circuit it is about to
// be applied to. It guards every invariant the resume path relies on, so a
// truncated, corrupted, or mismatched checkpoint surfaces as an error
// instead of an index panic deep in the placement kernel.
func (ck *Checkpoint) Validate(c *netlist.Circuit) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("place: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	if ck.Circuit != c.Name {
		return fmt.Errorf("place: checkpoint is for circuit %q, not %q", ck.Circuit, c.Name)
	}
	if len(ck.States) != len(c.Cells) {
		return fmt.Errorf("place: checkpoint has %d cell states, circuit has %d cells",
			len(ck.States), len(c.Cells))
	}
	if ck.BestValid && len(ck.Best) != len(c.Cells) {
		return fmt.Errorf("place: checkpoint best placement has %d states, circuit has %d cells",
			len(ck.Best), len(c.Cells))
	}
	if ck.Core.Empty() {
		return fmt.Errorf("place: checkpoint has an empty core")
	}
	if ck.ST <= 0 || math.IsNaN(ck.ST) || math.IsInf(ck.ST, 0) {
		return fmt.Errorf("place: checkpoint scale factor %v out of range", ck.ST)
	}
	for _, v := range []float64{ck.P2, ck.Cost.C1, ck.Cost.TEIL, ck.Cost.C3, ck.Ctl.T} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("place: checkpoint carries non-finite value %v", v)
		}
	}
	if ck.InnerDone < -1 {
		return fmt.Errorf("place: checkpoint inner-iteration index %d out of range", ck.InnerDone)
	}
	if err := validateCellStates(c, "state", ck.States); err != nil {
		return err
	}
	if ck.BestValid {
		if err := validateCellStates(c, "best", ck.Best); err != nil {
			return err
		}
	}
	return nil
}

// validateCellStates range-checks per-cell states from a checkpoint against
// the circuit, so corrupt snapshots surface as errors rather than panics.
func validateCellStates(c *netlist.Circuit, kind string, states []CellState) error {
	for i, st := range states {
		cl := &c.Cells[i]
		if st.Orient < 0 || st.Orient >= geom.NumOrients {
			return fmt.Errorf("place: checkpoint %s cell %q: bad orientation %d", kind, cl.Name, st.Orient)
		}
		if st.Instance < 0 || st.Instance >= len(cl.Instances) {
			return fmt.Errorf("place: checkpoint %s cell %q: no instance %d", kind, cl.Name, st.Instance)
		}
		if math.IsNaN(st.Aspect) || math.IsInf(st.Aspect, 0) || st.Aspect < 0 {
			return fmt.Errorf("place: checkpoint %s cell %q: bad aspect %v", kind, cl.Name, st.Aspect)
		}
		for u, a := range st.Units {
			if a.Edge < 0 || a.Edge > 3 || a.Site < 0 {
				return fmt.Errorf("place: checkpoint %s cell %q unit %d: bad assignment (%d,%d)",
					kind, cl.Name, u, a.Edge, a.Site)
			}
		}
	}
	return nil
}

// unitCountsMatch verifies the per-cell uncommitted-unit counts against the
// built placement (which knows the unit structure, unlike the raw circuit).
func unitCountsMatch(p *Placement, states []CellState) error {
	for i := range states {
		if len(states[i].Units) != len(p.units[i]) {
			return fmt.Errorf("place: checkpoint cell %q has %d unit assignments, placement has %d units",
				p.Circuit.Cells[i].Name, len(states[i].Units), len(p.units[i]))
		}
	}
	return nil
}

// EncodeCheckpoint writes ck to w: a single header line
//
//	twmc-checkpoint VERSION CRC32C PAYLOADLEN
//
// followed by the JSON payload. The checksum (CRC-32/Castagnoli of the
// payload bytes) lets the decoder reject torn or bit-rotted files.
func EncodeCheckpoint(w io.Writer, ck *Checkpoint) error {
	return encodeFramed(w, checkpointMagic, ck.Version, ck)
}

// encodeFramed writes the shared checkpoint framing: the header line with
// the given magic, the format version, the payload checksum and length,
// then the JSON payload itself.
func encodeFramed(w io.Writer, magic string, version int, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("place: encode checkpoint: %w", err)
	}
	sum := frame.Checksum(payload)
	if _, err := fmt.Fprintf(w, "%s %d %08x %d\n", magic, version, sum, len(payload)); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return nil
}

// DecodeCheckpoint reads a checkpoint written by EncodeCheckpoint,
// verifying the header, length, and checksum. It never panics on malformed
// input; every defect is a descriptive error.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	payload, version, err := decodeFramed(r, checkpointMagic, CheckpointVersion)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(payload, ck); err != nil {
		return nil, fmt.Errorf("place: checkpoint payload: %w", err)
	}
	if ck.Version != version {
		return nil, fmt.Errorf("place: checkpoint header version %d disagrees with payload version %d",
			version, ck.Version)
	}
	return ck, nil
}

// decodeFramed reads and verifies the shared checkpoint framing, returning
// the checksum-validated payload bytes and the header version.
func decodeFramed(r io.Reader, wantMagic string, wantVersion int) ([]byte, int, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, 0, fmt.Errorf("place: checkpoint header: %w", err)
	}
	var (
		magic   string
		version int
		sum     uint32
		size    int64
	)
	if _, err := fmt.Sscanf(header, "%s %d %x %d", &magic, &version, &sum, &size); err != nil {
		return nil, 0, fmt.Errorf("place: malformed checkpoint header %q", header)
	}
	if magic != wantMagic {
		return nil, 0, fmt.Errorf("place: not a checkpoint file (magic %q)", magic)
	}
	if version != wantVersion {
		return nil, 0, fmt.Errorf("place: checkpoint version %d, want %d", version, wantVersion)
	}
	if size < 0 || size > maxCheckpointPayload {
		return nil, 0, fmt.Errorf("place: checkpoint payload size %d out of range", size)
	}
	// Read incrementally rather than pre-allocating the claimed size, so a
	// forged header cannot demand a 1 GiB allocation for a tiny file.
	payload, err := io.ReadAll(io.LimitReader(br, size))
	if err != nil {
		return nil, 0, fmt.Errorf("place: checkpoint payload: %w", err)
	}
	if int64(len(payload)) != size {
		return nil, 0, fmt.Errorf("place: checkpoint truncated: %d of %d payload bytes", len(payload), size)
	}
	if got := frame.Checksum(payload); got != sum {
		return nil, 0, fmt.Errorf("place: checkpoint checksum mismatch: header %08x, payload %08x", sum, got)
	}
	return payload, version, nil
}

// SaveCheckpoint writes ck to path atomically and durably via
// fsio.WriteFileAtomic: encoded to memory first, then temp file + fsync +
// rename + directory fsync. A crash mid-write leaves either the previous
// checkpoint or the new one, never a torn file. The faultinject point
// place.checkpoint.save fails the save before any bytes move.
func SaveCheckpoint(path string, ck *Checkpoint) error {
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

// LoadCheckpoint reads and decodes the checkpoint at path. The faultinject
// point place.checkpoint.load fails the load before the file is opened.
func LoadCheckpoint(path string) (*Checkpoint, error) {
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
