package jobs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

func sampleRecords() []Record {
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	return []Record{
		{Seq: 1, Time: t0, State: StateQueued, Detail: "submitted"},
		{Seq: 2, Time: t0.Add(time.Second), State: StateRunning, Attempt: 1, Detail: "executing"},
		{Seq: 3, Time: t0.Add(time.Minute), State: StateSucceeded, Attempt: 1, Detail: "TEIL 123, chip 4x5"},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	recs := sampleRecords()
	data, err := EncodeJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestJournalDetectsCorruption(t *testing.T) {
	recs := sampleRecords()
	data, err := EncodeJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bit flip", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)/2] ^= 0x40
			return out
		}},
		{"truncated line", func(b []byte) []byte {
			return b[:len(b)-10]
		}},
		{"garbage tail", func(b []byte) []byte {
			return append(append([]byte(nil), b...), []byte("twjob 1 deadbeef 4 ????\n")...)
		}},
		{"bad magic", func(b []byte) []byte {
			return bytes.Replace(b, []byte("twjob"), []byte("twjoc"), 1)
		}},
		{"oversized length", func(b []byte) []byte {
			return []byte("twjob 1 00000000 99999999 {}\n")
		}},
		// Header fields with a valid checksum but a non-canonical form:
		// the encoder never writes these, so the decoder must not read
		// them as their numeric prefix.
		{"version with trailing junk", headerField(1, func(f string) string { return f + "junk" })},
		{"signed version", headerField(1, func(f string) string { return "+" + f })},
		{"checksum with trailing junk", headerField(2, func(f string) string { return f + "ZZ" })},
		{"uppercase checksum", headerField(2, strings.ToUpper)},
		{"length with trailing junk", headerField(3, func(f string) string { return f + "x" })},
		{"length with leading zero", headerField(3, func(f string) string { return "0" + f })},
		{"short checksum field", func([]byte) []byte {
			// Find a record whose checksum has a leading zero digit and
			// write that checksum unpadded.
			for i := 0; ; i++ {
				line, err := EncodeJournal([]Record{{Seq: 1, Time: time.Unix(0, 0).UTC(),
					State: StateQueued, Detail: fmt.Sprint("submitted ", i)}})
				if err != nil {
					panic(err)
				}
				fields := strings.SplitN(string(line), " ", 5)
				if strings.HasPrefix(fields[2], "0") {
					fields[2] = strings.TrimLeft(fields[2], "0")
					return []byte(strings.Join(fields, " "))
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(data)
			if _, err := DecodeJournal(bytes.NewReader(mut)); err == nil {
				t.Fatal("corruption went undetected")
			}
		})
	}
}

// headerField returns a mutation that rewrites header field i (1 version,
// 2 checksum, 3 length) of a journal's first line, leaving its payload and
// checksum intact.
func headerField(i int, rewrite func(string) string) func([]byte) []byte {
	return func(b []byte) []byte {
		first, rest, _ := strings.Cut(string(b), "\n")
		fields := strings.SplitN(first, " ", 5)
		fields[i] = rewrite(fields[i])
		return []byte(strings.Join(fields, " ") + "\n" + rest)
	}
}

// TestEncodeRefusesOversizedRecords pins the encode-side bound: a record
// whose payload the decoder would reject is refused at write time rather
// than written and then found unreadable.
func TestEncodeRefusesOversizedRecords(t *testing.T) {
	t0 := time.Unix(0, 0).UTC()
	if _, err := EncodeJournal([]Record{{Seq: 1, Time: t0, State: StateQueued,
		Detail: strings.Repeat("x", maxJournalLine)}}); err == nil {
		t.Error("journal record over maxJournalLine was encoded")
	}
	if err := AppendRecord(io.Discard, Record{Seq: 1, Time: t0, State: StateQueued,
		Detail: strings.Repeat("x", maxJournalLine)}); err == nil {
		t.Error("AppendRecord wrote a record over maxJournalLine")
	}
	if _, err := EncodeLeaseRecord(LeaseRecord{Token: 1, Time: t0, Expires: t0,
		Node: strings.Repeat("n", maxLeaseLine)}); err == nil {
		t.Error("lease record over maxLeaseLine was encoded")
	}
}

func TestJournalKeepsValidPrefix(t *testing.T) {
	recs := sampleRecords()[:2]
	data, err := EncodeJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, []byte("twjob 1 00000000 2 {}\n")...)
	got, derr := DecodeJournal(bytes.NewReader(data))
	if derr == nil {
		t.Fatal("appended garbage went undetected")
	}
	if len(got) != 2 {
		t.Fatalf("valid prefix has %d records, want 2", len(got))
	}
}

func TestJournalRejectsSequenceGap(t *testing.T) {
	recs := sampleRecords()
	recs[2].Seq = 5
	data, err := EncodeJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJournal(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "sequence") {
		t.Fatalf("sequence gap error = %v", err)
	}
}

func TestJournalRejectsRecordAfterTerminal(t *testing.T) {
	t0 := time.Now().UTC()
	recs := []Record{
		{Seq: 1, Time: t0, State: StateCanceled},
		{Seq: 2, Time: t0, State: StateRunning},
	}
	data, err := EncodeJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJournal(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "terminal") {
		t.Fatalf("post-terminal record error = %v", err)
	}
}

func TestJournalRejectsUnknownState(t *testing.T) {
	data, err := EncodeJournal([]Record{{Seq: 1, Time: time.Now().UTC(), State: "exploded"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJournal(bytes.NewReader(data)); err == nil {
		t.Fatal("unknown state went undetected")
	}
}

func TestDurationJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{`"30s"`, 30 * time.Second},
		{`"2h45m"`, 2*time.Hour + 45*time.Minute},
		{`90`, 90 * time.Second},
	} {
		var d Duration
		if err := d.UnmarshalJSON([]byte(tc.in)); err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if time.Duration(d) != tc.want {
			t.Fatalf("%s parsed to %v, want %v", tc.in, time.Duration(d), tc.want)
		}
	}
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Fatal("bogus duration accepted")
	}
}
