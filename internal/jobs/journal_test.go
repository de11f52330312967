package jobs

import (
	"bytes"
	"errors"
	"fmt"
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

// TestJournalDetectsCorruption covers every defect class the decoder
// stops at. Each must be detected as a *JournalError of the right kind —
// Invalid for a cleanly decoded record that breaks the record check,
// corrupt for a framing or payload defect — with the valid prefix before it
// kept.
func TestJournalDetectsCorruption(t *testing.T) {
	recs := sampleRecords()
	data, err := EncodeJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	// journal replaces the sample journal with an encoded one.
	journal := func(recs ...Record) func([]byte) []byte {
		return func([]byte) []byte {
			b, err := EncodeJournal(recs)
			if err != nil {
				panic(err)
			}
			return b
		}
	}
	t0 := recs[0].Time
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		invalid bool
		prefix  int
	}{
		{"bit flip", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)/2] ^= 0x40
			return out
		}, false, 1},
		{"truncated line", func(b []byte) []byte {
			return b[:len(b)-10]
		}, false, 2},
		{"garbage tail", func(b []byte) []byte {
			return append(append([]byte(nil), b...), []byte("twjob 1 deadbeef 4 ????\n")...)
		}, false, 3},
		{"bad magic", func(b []byte) []byte {
			return bytes.Replace(b, []byte("twjob"), []byte("twjoc"), 1)
		}, false, 0},
		{"oversized length", func(b []byte) []byte {
			return []byte("twjob 1 00000000 99999999 {}\n")
		}, false, 0},
		// Header fields with a valid checksum but a non-canonical form:
		// the encoder never writes these, so the decoder must not read
		// them as their numeric prefix.
		{"version with trailing junk", headerField(1, func(f string) string { return f + "junk" }), false, 0},
		{"signed version", headerField(1, func(f string) string { return "+" + f }), false, 0},
		{"checksum with trailing junk", headerField(2, func(f string) string { return f + "ZZ" }), false, 0},
		{"uppercase checksum", headerField(2, strings.ToUpper), false, 0},
		{"length with trailing junk", headerField(3, func(f string) string { return f + "x" }), false, 0},
		{"length with leading zero", headerField(3, func(f string) string { return "0" + f }), false, 0},
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
		}, false, 0},
		{"zero checksum after valid prefix", func(b []byte) []byte {
			first, _, _ := bytes.Cut(b, []byte("\n"))
			return append(append(first, '\n'), "twjob 1 00000000 2 {}\n"...)
		}, false, 1},
		{"negative attempt", journal(Record{Seq: 1, Time: t0, State: StateQueued, Attempt: -1}), false, 0},
		{"dedup without source", journal(recs[0], Record{Seq: 2, Time: t0, State: StateDedup}), false, 1},
		{"bad source job", journal(Record{Seq: 1, Time: t0, State: StateQueued, Source: "../x"}), false, 0},
		// Rule breaks: every line is well framed.
		{"sequence gap", journal(recs[0], recs[1], Record{Seq: 5, Time: t0, State: StateSucceeded}), true, 2},
		{"sequence zero", journal(Record{Seq: 0, Time: t0, State: StateQueued}), true, 0},
		{"unknown state", journal(Record{Seq: 1, Time: t0, State: "exploded"}), true, 0},
		{"record after terminal", journal(Record{Seq: 1, Time: t0, State: StateCanceled},
			Record{Seq: 2, Time: t0, State: StateRunning}), true, 1},
		{"invalid transition", journal(recs[0], Record{Seq: 2, Time: t0, State: StateSucceeded}), true, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeJournal(bytes.NewReader(tc.mutate(data)))
			var je *JournalError
			if !errors.As(err, &je) {
				t.Fatalf("error = %v, want a *JournalError", err)
			}
			if je.Invalid != tc.invalid {
				t.Errorf("Invalid = %v, want %v (%v)", je.Invalid, tc.invalid, err)
			}
			if len(got) != tc.prefix {
				t.Errorf("valid prefix has %d records, want %d (%v)", len(got), tc.prefix, err)
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
