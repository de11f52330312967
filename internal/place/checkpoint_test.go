package place

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// makeCheckpoint runs a short anneal with checkpointing enabled and returns
// the written checkpoint plus the circuit it belongs to.
func makeCheckpoint(t *testing.T) (*netlist.Circuit, *Checkpoint, string) {
	t.Helper()
	c, err := gen.Preset("i3", 11)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opt := Options{Seed: 42, Ac: 8, MaxSteps: 6, CheckpointPath: path, CheckpointEvery: 2}
	if _, _, err := RunStage1Ctx(context.Background(), c, opt); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return c, ck.Single, path
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	c, ck, _ := makeCheckpoint(t)
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, &AnyCheckpoint{Single: ck}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Single, ck) {
		t.Fatal("decoded checkpoint differs from encoded one")
	}
	if err := got.Validate(c); err != nil {
		t.Fatalf("round-tripped checkpoint fails validation: %v", err)
	}
}

func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	_, ck, _ := makeCheckpoint(t)
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, &AnyCheckpoint{Single: ck}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	headerEnd := bytes.IndexByte(good, '\n') + 1

	corrupt := func(name string, mutate func([]byte) []byte, wantSub string) {
		data := mutate(append([]byte(nil), good...))
		_, err := DecodeCheckpoint(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("%s: decode accepted corrupted input", name)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q lacks %q", name, err, wantSub)
		}
	}

	corrupt("bit flip in payload", func(b []byte) []byte {
		b[headerEnd+len(b[headerEnd:])/2] ^= 0x40
		return b
	}, "checksum")
	corrupt("truncated payload", func(b []byte) []byte {
		return b[:len(b)-10]
	}, "truncated")
	corrupt("empty input", func(b []byte) []byte { return nil }, "header")
	corrupt("garbage header", func(b []byte) []byte {
		return append([]byte("not a header line at all\n"), b[headerEnd:]...)
	}, "")
	corrupt("wrong magic", func(b []byte) []byte {
		return append([]byte("other-format 1 00000000 5\nhello"), nil...)
	}, "magic")
	corrupt("future version", func(b []byte) []byte {
		return bytes.Replace(b, []byte("twmc-checkpoint 1 "), []byte("twmc-checkpoint 999 "), 1)
	}, "version")
	corrupt("absurd payload size", func(b []byte) []byte {
		return []byte("twmc-checkpoint 1 00000000 99999999999\n")
	}, "size")
}

func TestCheckpointValidateRejectsMismatches(t *testing.T) {
	c, ck, _ := makeCheckpoint(t)

	check := func(name string, mutate func(ck *Checkpoint), wantSub string) {
		bad := *ck
		bad.States = cloneStates(ck.States)
		bad.Best = cloneStates(ck.Best)
		mutate(&bad)
		err := bad.validate(c)
		if err == nil {
			t.Fatalf("%s: Validate accepted a bad checkpoint", name)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q lacks %q", name, err, wantSub)
		}
	}

	check("wrong version", func(ck *Checkpoint) { ck.Version = 99 }, "version")
	check("wrong circuit", func(ck *Checkpoint) { ck.Circuit = "other" }, "circuit")
	check("state count", func(ck *Checkpoint) { ck.States = ck.States[:1] }, "cell states")
	check("best count", func(ck *Checkpoint) { ck.Best = ck.Best[:1] }, "best placement")
	check("negative site", func(ck *Checkpoint) {
		for i := range ck.States {
			if len(ck.States[i].Units) > 0 {
				ck.States[i].Units[0].Site = -3
				return
			}
		}
		t.Skip("no cell with uncommitted units in this preset")
	}, "bad assignment")
	check("bad orientation", func(ck *Checkpoint) { ck.States[0].Orient = 17 }, "orientation")
	check("bad instance", func(ck *Checkpoint) { ck.States[0].Instance = 99 }, "instance")
	check("NaN scale factor", func(ck *Checkpoint) { ck.ST = math.NaN() }, "scale factor")
	check("infinite cost", func(ck *Checkpoint) { ck.Cost.C1 = math.Inf(1) }, "non-finite")
	check("bad inner index", func(ck *Checkpoint) { ck.InnerDone = -2 }, "inner-iteration")
	check("empty core", func(ck *Checkpoint) { ck.Core = geom.Rect{} }, "core")
	// Aspects no producer writes on a custom-shape cell, and a unit too many
	// or too few: the cell-state check ReadPlacement shares.
	custom, withUnits := -1, -1
	for i := range ck.States {
		if custom < 0 && c.Cells[i].Instances[ck.States[i].Instance].IsCustomShape() {
			custom = i
		}
		if withUnits < 0 && len(ck.States[i].Units) > 0 {
			withUnits = i
		}
	}
	if custom < 0 || withUnits < 0 {
		t.Fatal("checkpointed circuit lacks a custom-shape cell or a cell with uncommitted units")
	}
	for _, aspect := range []float64{math.NaN(), math.Inf(1), 1e300, -1} {
		check(fmt.Sprintf("aspect %v", aspect), func(ck *Checkpoint) { ck.States[custom].Aspect = aspect }, "aspect")
	}
	check("unit missing", func(ck *Checkpoint) {
		ck.States[withUnits].Units = ck.States[withUnits].Units[1:]
	}, "unit assignments")
	check("unit too many", func(ck *Checkpoint) {
		ck.States[withUnits].Units = append(ck.States[withUnits].Units, UnitAssign{})
	}, "unit assignments")
	// Every producer draws a site below the cell's site count; a site at
	// 2^31 on edge 0 used to pass and then panic Resume with a negative
	// index (the placement stores sites as int32).
	for _, site := range []int{sitesPerEdge(&c.Cells[withUnits]), 1 << 31} {
		check(fmt.Sprintf("site %d", site), func(ck *Checkpoint) {
			ck.States[withUnits].Units[0] = UnitAssign{Edge: 0, Site: site}
		}, "bad assignment")
	}
}

func TestSaveCheckpointAtomicNoTempLeftovers(t *testing.T) {
	_, ck, path := makeCheckpoint(t)
	// Overwrite the existing checkpoint in place a few times.
	for i := 0; i < 3; i++ {
		if err := SaveCheckpoint(path, &AnyCheckpoint{Single: ck}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temporary file %s left behind", e.Name())
		}
	}
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatalf("checkpoint unreadable after repeated saves: %v", err)
	}
	// Saving into a nonexistent directory must fail cleanly, not panic.
	if err := SaveCheckpoint(filepath.Join(path, "no", "such", "dir", "x.ckpt"), &AnyCheckpoint{Single: ck}); err == nil {
		t.Fatal("save into a nonexistent directory succeeded")
	}
}

// TestCheckpointFormatPinned holds the on-disk format still: the files
// under testdata/checkpoints were written by an earlier build (i3, fixed
// seeds: a mid-step and a boundary single-run checkpoint, and a 3-replica
// tempering checkpoint). Each must decode to its kind, re-encode byte for
// byte, and resume to the placement and Result of the uninterrupted run.
func TestCheckpointFormatPinned(t *testing.T) {
	c, err := gen.Preset("i3", 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file     string
		opt      Options
		replicas int
		inner    int // Single.InnerDone; ignored for tempering
	}{
		{"single-midstep.ckpt", Options{Seed: 3, Ac: 8, MaxSteps: 10}, 1, 128},
		{"single-boundary.ckpt", Options{Seed: 7, Ac: 8, MaxSteps: 10}, 1, -1},
		{"tempered-r3.ckpt", Options{Seed: 5, Ac: 8, MaxSteps: 10}, 3, 0},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "checkpoints", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			ck, err := DecodeCheckpoint(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.replicas > 1 && (ck.Temper == nil || ck.Temper.Replicas != tc.replicas):
				t.Fatalf("decoded %+v, want a %d-replica tempering checkpoint", ck, tc.replicas)
			case tc.replicas == 1 && (ck.Single == nil || ck.Single.InnerDone != tc.inner):
				t.Fatalf("decoded %+v, want a single-run checkpoint with InnerDone %d", ck, tc.inner)
			}
			var buf bytes.Buffer
			if err := EncodeCheckpoint(&buf, ck); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatal("re-encoded checkpoint differs from the pinned file")
			}

			pRef, resRef, err := RunStage1TemperedCtx(context.Background(), c, tc.opt, tc.replicas, 1)
			if err != nil {
				t.Fatal(err)
			}
			pRes, resRes, err := Resume(context.Background(), c, ck, Options{}, 2)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalOutcome(t, tc.file, pRef, resRef, pRes, resRes)
		})
	}
}

// frameReader serves one encoded checkpoint (header + payload) and fails
// the test on any Read issued once it is all consumed: a decoder must never
// ask for bytes past the payload the header declares.
type frameReader struct {
	t    *testing.T
	data []byte
	off  int
}

func (r *frameReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		r.t.Fatalf("decoder read past the %d bytes of header and payload", len(r.data))
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestDecodeCheckpointReadsOnlyFrame decodes both kinds from a stream that
// must not be read past the frame: the sniffing decoder peeks the magic and
// then reads incrementally, up to the declared payload length and no
// further (so never more than maxCheckpointPayload bytes).
func TestDecodeCheckpointReadsOnlyFrame(t *testing.T) {
	for _, file := range []string{"single-midstep.ckpt", "tempered-r3.ckpt"} {
		data, err := os.ReadFile(filepath.Join("testdata", "checkpoints", file))
		if err != nil {
			t.Fatal(err)
		}
		ck, err := DecodeCheckpoint(&frameReader{t: t, data: data})
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if (ck.Temper != nil) != strings.HasPrefix(file, "tempered") {
			t.Fatalf("%s: decoded the wrong kind: %+v", file, ck)
		}
	}
}

// nonCanonicalCheckpoints returns variants of the encoded checkpoint good
// that an encoder never writes: six with a non-canonical header over the
// same payload, and one whose payload carries an unknown field under a
// canonical header.
func nonCanonicalCheckpoints(good []byte) []namedInput {
	nl := bytes.IndexByte(good, '\n')
	h, payload := strings.Fields(string(good[:nl])), good[nl+1:]
	with := func(name, header string, payload []byte) namedInput {
		return namedInput{name, append([]byte(header+"\n"), payload...)}
	}
	unknown := append([]byte(`{"Unknown":1,`), payload[1:]...)
	return []namedInput{
		with("signed version", h[0]+" +"+h[1]+" "+h[2]+" "+h[3], payload),
		with("upper-case CRC", h[0]+" "+h[1]+" "+strings.ToUpper(h[2])+" "+h[3], payload),
		with("zero-padded length", h[0]+" "+h[1]+" "+h[2]+" 00"+h[3], payload),
		with("length with junk", h[0]+" "+h[1]+" "+h[2]+" "+h[3]+"junk", payload),
		with("trailing word", h[0]+" "+h[1]+" "+h[2]+" "+h[3]+" extra", payload),
		with("tab separators", strings.Join(h, "\t"), payload),
		with("unknown field", fmt.Sprintf("%s %s %08x %d", h[0], h[1], frame.Checksum(unknown), len(unknown)), unknown),
	}
}

type namedInput struct {
	name string
	data []byte
}

// TestDecodeCheckpointRejectsNonCanonical holds the decoder to the one
// header form the encoder writes and to a strict payload: every variant of
// a pinned checkpoint from nonCanonicalCheckpoints is refused.
func TestDecodeCheckpointRejectsNonCanonical(t *testing.T) {
	for _, file := range []string{"single-midstep.ckpt", "tempered-r3.ckpt"} {
		good, err := os.ReadFile(filepath.Join("testdata", "checkpoints", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range nonCanonicalCheckpoints(good) {
			if _, err := DecodeCheckpoint(bytes.NewReader(in.data)); err == nil {
				t.Errorf("%s: %s accepted", file, in.name)
			}
		}
	}
}

// TestEncodeCheckpointRefusesVersionMismatch pins that the encoder writes
// nothing the decoder would refuse for a payload version other than its
// format's.
func TestEncodeCheckpointRefusesVersionMismatch(t *testing.T) {
	_, ck, _ := makeCheckpoint(t)
	bad := *ck
	bad.Version = checkpointFormat.Version + 1
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, &AnyCheckpoint{Single: &bad}); err == nil || buf.Len() != 0 {
		t.Fatalf("encoded a version-%d payload: err = %v, %d bytes written", bad.Version, err, buf.Len())
	}
}
