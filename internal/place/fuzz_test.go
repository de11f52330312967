package place

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/gen"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to the one checkpoint
// decoder, which sniffs the kind: it must either return a descriptive error
// or a checkpoint of either kind that re-encodes losslessly — never panic,
// and never allocate based on unverified header claims. Validate on the
// decoded value must likewise only ever error. An accepted input's header
// line must be the canonical header of the payload after it: the header is
// read in the one form the encoder writes. The non-canonical variants of
// both genuine checkpoints (nonCanonicalCheckpoints) are seeds.
func FuzzDecodeCheckpoint(f *testing.F) {
	c, err := gen.Preset("i3", 11)
	if err != nil {
		f.Fatal(err)
	}
	// Seed with a genuine checkpoint from a short interrupted run.
	path := f.TempDir() + "/seed.ckpt"
	opt := Options{Seed: 42, Ac: 8, MaxSteps: 6, CheckpointPath: path, CheckpointEvery: 2}
	if _, _, err := RunStage1Ctx(context.Background(), c, opt); err != nil {
		f.Fatal(err)
	}
	good := encodedCheckpoint(f, path)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("twmc-checkpoint 1 00000000 2\n{}"))
	f.Add([]byte("twmc-checkpoint 1 00000000 999999999\n"))
	f.Add([]byte("not a checkpoint"))
	f.Add([]byte(""))
	// And with a genuine 3-replica tempering checkpoint.
	if _, _, err := RunStage1TemperedCtx(context.Background(), c, opt, 3, 1); err != nil {
		f.Fatal(err)
	}
	tgood := encodedCheckpoint(f, path)
	f.Add(tgood)
	f.Add(tgood[:len(tgood)/2])
	f.Add([]byte("twmc-temper-checkpoint 1 00000000 2\n{}"))
	for _, in := range append(nonCanonicalCheckpoints(good), nonCanonicalCheckpoints(tgood)...) {
		f.Add(in.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if (ck.Single == nil) == (ck.Temper == nil) {
			t.Fatalf("decoder returned %+v, want exactly one kind", ck)
		}
		if header, canonical := acceptedHeader(data, ck); header != canonical {
			t.Fatalf("accepted header %q, canonical header of its payload %q", header, canonical)
		}
		// Validation of hostile contents must degrade to an error, not a
		// panic; the result itself is irrelevant here.
		_ = ck.Validate(c)
		// A decoded checkpoint must survive an encode/decode round trip.
		var buf bytes.Buffer
		if err := EncodeCheckpoint(&buf, ck); err != nil {
			t.Fatalf("re-encode of a decoded checkpoint failed: %v", err)
		}
		again, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, ck) {
			t.Fatal("checkpoint changed across an encode/decode round trip")
		}
	})
}

// encodedCheckpoint loads the checkpoint at path and returns its encoding.
func encodedCheckpoint(f *testing.F, path string) []byte {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, ck); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// acceptedHeader splits an accepted checkpoint into its header line and the
// payload the header's last field declares, and returns the header with
// the canonical header of that payload for ck's kind. An unparsable or
// overlong length yields an empty canonical header.
func acceptedHeader(data []byte, ck *AnyCheckpoint) (header, canonical string) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return string(data), ""
	}
	header, rest := string(data[:nl]), data[nl+1:]
	n, err := strconv.Atoi(header[strings.LastIndexByte(header, ' ')+1:])
	if err != nil || n < 0 || n > len(rest) {
		return header, ""
	}
	magic, version := "twmc-checkpoint", 1
	if ck.Temper != nil {
		magic = "twmc-temper-checkpoint"
	}
	return header, fmt.Sprintf("%s %d %08x %d", magic, version, frame.Checksum(rest[:n]), n)
}
