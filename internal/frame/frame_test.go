package frame

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

var testFormat = Format{Magic: "twtest", Version: 2, Max: 64}

type payload struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func TestAppendDecodeRoundTrip(t *testing.T) {
	prefix := []byte("earlier line\n")
	line, err := testFormat.Append(append([]byte(nil), prefix...), payload{N: 7, S: "é\"<"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(line, prefix) {
		t.Fatalf("Append clobbered dst: %q", line)
	}
	line = line[len(prefix):]
	want := `{"n":7,"s":"é\"\u003c"}`
	if got := string(line); got != fmt.Sprintf("twtest 2 %08x %d %s\n", Checksum([]byte(want)), len(want), want) {
		t.Fatalf("line = %q", got)
	}
	var got payload
	if err := testFormat.Decode(line, &got); err != nil {
		t.Fatal(err)
	}
	if got != (payload{N: 7, S: "é\"<"}) {
		t.Fatalf("decoded %+v", got)
	}
	// The trailing newline is optional on decode.
	if err := testFormat.Decode(bytes.TrimSuffix(line, []byte("\n")), &got); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRefusesOverMax pins the encode-side bound: a payload Decode
// would reject is never written, and dst comes back unchanged.
func TestAppendRefusesOverMax(t *testing.T) {
	for _, tc := range []struct {
		s  string
		ok bool
	}{
		{strings.Repeat("x", testFormat.Max-len(`{"n":0,"s":""}`)), true},
		{strings.Repeat("x", testFormat.Max-len(`{"n":0,"s":""}`)+1), false},
	} {
		dst := []byte("keep")
		out, err := testFormat.Append(dst, payload{S: tc.s})
		if tc.ok {
			if err != nil {
				t.Fatalf("payload at the bound refused: %v", err)
			}
			var back payload
			if err := testFormat.Decode(out[len(dst):], &back); err != nil || back.S != tc.s {
				t.Fatalf("payload at the bound does not decode: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "limit 64") {
			t.Fatalf("over-bound payload: err = %v", err)
		}
		if string(out) != "keep" {
			t.Fatalf("over-bound payload changed dst: %q", out)
		}
	}
	if _, err := testFormat.Append(nil, func() {}); err == nil {
		t.Fatal("unmarshalable value encoded")
	}
}

func TestDecodeRejects(t *testing.T) {
	good, err := testFormat.Append(nil, payload{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := string(good[9:17])
	cases := []struct {
		name, line, want string
	}{
		{"empty", "", "malformed record"},
		{"two lines", string(good) + string(good), "spans multiple lines"},
		{"missing fields", "twtest 2 " + sum + " 7", "malformed record"},
		{"bad magic", "twtesx" + string(good[6:]), "bad magic"},
		{"old version", "twtest 1" + string(good[8:]), "unsupported version"},
		{"newer version", "twtest 3" + string(good[8:]), "unsupported version"},
		{"signed version", "twtest +2" + string(good[8:]), "unsupported version"},
		{"version with junk", "twtest 2x" + string(good[8:]), "unsupported version"},
		{"short checksum", "twtest 2 " + sum[1:] + string(good[17:]), "bad checksum field"},
		{"long checksum", "twtest 2 0" + sum + string(good[17:]), "bad checksum field"},
		{"uppercase checksum", "twtest 2 " + strings.ToUpper(sum) + string(good[17:]), "bad checksum field"},
		{"non-hex checksum", "twtest 2 zzzzzzzz" + string(good[17:]), "bad checksum field"},
		{"negative length", "twtest 2 " + sum + " -7 {\"n\":1}", "bad length field"},
		{"leading-zero length", "twtest 2 " + sum + " 07 {\"n\":1}", "bad length field"},
		{"length with junk", "twtest 2 " + sum + " 7x {\"n\":1}", "bad length field"},
		{"length over max", "twtest 2 " + sum + " 65 {\"n\":1}", "bad length field"},
		{"huge length", "twtest 2 " + sum + " 99999999999999999999999 {}", "bad length field"},
		{"length mismatch", "twtest 2 " + sum + " 8 {\"n\":1}", "payload is 7 bytes, header says 8"},
		{"checksum mismatch", "twtest 2 " + sum + " 7 {\"n\":2}", "checksum mismatch"},
		{"unknown field", frameOf(`{"n":1,"x":2}`), "payload: json: unknown field"},
		{"not json", frameOf(`{"n":`), "payload:"},
		{"wrong type", frameOf(`{"n":"1"}`), "payload:"},
	}
	for _, tc := range cases {
		var v payload
		err := testFormat.Decode([]byte(tc.line), &v)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// frameOf frames raw JSON bytes as testFormat would, bypassing Marshal.
func frameOf(js string) string {
	return fmt.Sprintf("twtest 2 %08x %d %s", Checksum([]byte(js)), len(js), js)
}

func TestChecksumIsCastagnoli(t *testing.T) {
	// The CRC-32C check value (RFC 3720 §B.4: 32 bytes of zeros).
	if got := Checksum(make([]byte, 32)); got != 0x8a9136aa {
		t.Fatalf("Checksum(zeros) = %08x, want 8a9136aa", got)
	}
}

// TestBlobRoundTrip pins the blob layout: the header line, then the payload
// with no trailing newline; ReadBlob reads exactly that far and leaves what
// follows for the caller.
func TestBlobRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := testFormat.WriteBlob(&buf, payload{N: 7, S: "é"}); err != nil {
		t.Fatal(err)
	}
	want := `{"n":7,"s":"é"}`
	if got := buf.String(); got != fmt.Sprintf("twtest 2 %08x %d\n%s", Checksum([]byte(want)), len(want), want) {
		t.Fatalf("blob = %q", got)
	}
	br := bufio.NewReader(strings.NewReader(buf.String() + "next"))
	var got payload
	if err := testFormat.ReadBlob(br, &got); err != nil {
		t.Fatal(err)
	}
	if got != (payload{N: 7, S: "é"}) {
		t.Fatalf("decoded %+v", got)
	}
	if rest, _ := io.ReadAll(br); string(rest) != "next" {
		t.Fatalf("ReadBlob consumed past the payload: %q left", rest)
	}
	buf.Reset()
	if err := testFormat.WriteBlob(&buf, payload{S: strings.Repeat("x", testFormat.Max)}); err == nil || buf.Len() != 0 {
		t.Fatalf("over-bound blob: err = %v, %d bytes written", err, buf.Len())
	}
}

// TestReadBlobRejects runs the blob decoder over the header defects
// TestDecodeRejects covers for lines (one parser serves both layouts) and
// over the blob's own: a missing or overlong header line, a short payload,
// and a payload with data after its JSON value.
func TestReadBlobRejects(t *testing.T) {
	blob := func(js string) string {
		return fmt.Sprintf("twtest 2 %08x %d\n%s", Checksum([]byte(js)), len(js), js)
	}
	good := blob(`{"n":1}`)
	sum := good[9:17]
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "header: EOF"},
		{"no newline", "twtest 2 " + sum + " 7", "header: EOF"},
		{"overlong header", strings.Repeat("x", 5000), "header: bufio: buffer full"},
		{"missing fields", "twtest 2 " + sum + "\n{}", "malformed header"},
		{"bad magic", "twtesx" + good[6:], "bad magic"},
		{"signed version", "twtest +2" + good[8:], "unsupported version"},
		{"uppercase checksum", "twtest 2 " + strings.ToUpper(sum) + good[17:], "bad checksum field"},
		{"leading-zero length", "twtest 2 " + sum + " 07\n{\"n\":1}", "bad length field"},
		{"length with junk", "twtest 2 " + sum + " 7x\n{\"n\":1}", "bad length field"},
		{"trailing word", "twtest 2 " + sum + " 7 x\n{\"n\":1}", "bad length field"},
		{"tab separators", "twtest\t2\t" + sum + "\t7\n{\"n\":1}", "malformed header"},
		{"length over max", "twtest 2 " + sum + " 65\n{\"n\":1}", "payload size in 0..64"},
		{"truncated", good[:len(good)-1], "truncated: 6 of 7 payload bytes"},
		{"checksum mismatch", "twtest 2 " + sum + " 7\n{\"n\":2}", "checksum mismatch"},
		{"unknown field", blob(`{"n":1,"x":2}`), "payload: json: unknown field"},
		{"data after the value", blob(`{"n":1}{}`), "payload: data after the JSON value"},
	}
	for _, tc := range cases {
		var v payload
		err := testFormat.ReadBlob(bufio.NewReader(strings.NewReader(tc.in)), &v)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
