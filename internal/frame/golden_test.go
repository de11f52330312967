package frame_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// TestGoldenLines pins on-disk bytes: each testdata/*.golden line was
// written by the record encoders before they moved onto this package. The
// current encoders must reproduce it byte for byte, and the decoders must
// return the value it was written from. The values carry non-ASCII text,
// JSON-escaped characters, and zero-valued optional fields (omitted on
// disk).
func TestGoldenLines(t *testing.T) {
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 123456789, time.UTC)
	rec := jobs.Record{
		Seq: 1, Time: t0, State: jobs.StateQueued,
		Detail: "submitted by «Zoë» \"quoted\" <a&b>\t\\ ✓",
		Node:   "nœud-1", Token: 7,
	}
	lease := jobs.LeaseRecord{
		Token: 3, Node: "nœud-1 \"east\"", Time: t0, Expires: t0.Add(3 * time.Second),
	}
	entry := jobs.IndexEntry{
		Kind: "idem", Tenant: "équipe", Key: "clé/ключ \"k\"\n<1>",
		Digest: "sha256:9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
		Job:    "j000042", Time: t0,
	}
	span := telemetry.Span{
		V: telemetry.SpanVersion, ID: "a1/phase.stage1.1", Parent: "a1", Job: "j000042", Node: "n2", Token: 5,
		Name: "phase:stage1 «r2»", Start: t0, End: t0.Add(1500 * time.Millisecond),
		Attrs: map[string]string{"detail": "quote \" backslash \\ tab\t ✓", "step": "12"},
	}
	cases := []struct {
		file   string
		want   any
		encode func() ([]byte, error)
		decode func([]byte) (any, error)
	}{
		{"journal.golden", rec,
			func() ([]byte, error) { return jobs.EncodeJournal([]jobs.Record{rec}) },
			func(b []byte) (any, error) {
				recs, err := jobs.DecodeJournal(bytes.NewReader(b))
				if len(recs) != 1 {
					return nil, err
				}
				return recs[0], err
			}},
		{"lease.golden", lease,
			func() ([]byte, error) { return jobs.EncodeLeaseRecord(lease) },
			func(b []byte) (any, error) { return jobs.DecodeLeaseRecord(b) }},
		{"index.golden", entry,
			func() ([]byte, error) { return jobs.EncodeIndexEntry(entry) },
			func(b []byte) (any, error) { return jobs.DecodeIndexEntry(b) }},
		{"span.golden", span,
			func() ([]byte, error) { return telemetry.EncodeSpan(span) },
			func(b []byte) (any, error) { return telemetry.DecodeSpan(b) }},
	}
	for _, tc := range cases {
		golden, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.file, err)
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("%s: encoder drifted from the committed bytes:\n got %q\nwant %q", tc.file, got, golden)
		}
		back, err := tc.decode(golden)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.file, err)
		}
		if !reflect.DeepEqual(back, tc.want) {
			t.Errorf("%s: decoded %+v\nwant %+v", tc.file, back, tc.want)
		}
	}
}
