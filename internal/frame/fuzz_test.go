package frame

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// formats are the repo's four line record types (magic, version, bound as
// the jobs and telemetry packages declare them).
var formats = []Format{
	{Magic: "twjob", Version: 1, Max: 1 << 20},
	{Magic: "twlease", Version: 1, Max: 1 << 16},
	{Magic: "twidx", Version: 1, Max: 1 << 16},
	{Magic: "twspan", Version: 1, Max: 1 << 16},
}

// FuzzFrameDecode throws arbitrary bytes at the shared line decoder under
// each record type's format: it must never panic, and any line it accepts
// must re-encode to the same bytes. A mutation cannot forge the payload
// checksum, so what gets through differs from a seed only in its header;
// re-encoding proves every header field is read in the one canonical form
// Append writes.
func FuzzFrameDecode(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(goldens) != len(formats) {
		f.Fatalf("want %d golden lines, found %v (%v)", len(formats), goldens, err)
	}
	for _, path := range goldens {
		line, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		f.Add(bytes.TrimSuffix(line, []byte("\n")))
		for _, n := range []int{1, 7, 20, len(line) / 2, len(line) - 2} {
			f.Add(line[:n]) // torn writes
		}
	}
	f.Add([]byte("twjob 1 00000000 2 {}\n"))
	f.Add([]byte("twlease 1 deadbeef 99999999 {}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ft := range formats {
			var v json.RawMessage
			if err := ft.Decode(data, &v); err != nil {
				continue
			}
			again, err := ft.Append(nil, v)
			if err != nil {
				t.Fatalf("%s: accepted line fails to re-encode: %v", ft.Magic, err)
			}
			if want := append(bytes.TrimSuffix(data, []byte("\n")), '\n'); !bytes.Equal(again, want) {
				t.Fatalf("%s: re-encode changed the line:\n got %q\nwant %q", ft.Magic, again, want)
			}
		}
	})
}
