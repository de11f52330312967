// Package frame owns the repo's CRC-framed line record format and its
// checksum. Every durable line record — job journal, lease claim and
// heartbeat, dedupe index entry, lifecycle span — is one line
//
//	MAGIC VERSION CRC32C PAYLOADLEN PAYLOADJSON\n
//
// where CRC32C is eight lowercase hex digits of the CRC-32/Castagnoli of the
// payload bytes and PAYLOADLEN their count in decimal. The checksum and the
// explicit length let a reader reject torn or bit-rotted lines one by one;
// what a record type does with a bad line (stop, skip) is its own policy.
package frame

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32/Castagnoli of b: the line checksum, and the
// one the job store journals for result artifacts and writes into
// checkpoint headers.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Format is one record type's framing: its magic word, its exact version,
// and the largest JSON payload either side accepts.
type Format struct {
	Magic   string
	Version int
	Max     int
}

// Append JSON-marshals v and appends its framed line to dst. A payload over
// f.Max is refused, so nothing is written that Decode would reject.
func (f Format) Append(dst []byte, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	if len(payload) > f.Max {
		return dst, fmt.Errorf("payload is %d bytes, limit %d", len(payload), f.Max)
	}
	return fmt.Appendf(dst, "%s %d %08x %d %s\n", f.Magic, f.Version, Checksum(payload), len(payload), payload), nil
}

// Decode verifies one framed line (a trailing newline is allowed) and
// strictly decodes its payload into v. It checks, in order: a single line,
// the magic, the exact version, an eight-hex-digit checksum field, a length
// within f.Max that matches the payload, the checksum, and a JSON payload
// with no unknown fields. Header fields must be in the canonical form Append
// writes. It never panics on malformed input.
func (f Format) Decode(line []byte, v any) error {
	line = bytes.TrimSuffix(line, []byte("\n"))
	if bytes.IndexByte(line, '\n') >= 0 {
		return fmt.Errorf("record spans multiple lines")
	}
	fields := bytes.SplitN(line, []byte(" "), 5)
	if len(fields) != 5 {
		return fmt.Errorf("malformed record %.40q", line)
	}
	if string(fields[0]) != f.Magic {
		return fmt.Errorf("bad magic %.20q", fields[0])
	}
	if string(fields[1]) != strconv.Itoa(f.Version) {
		return fmt.Errorf("unsupported version %.20q", fields[1])
	}
	sum, err := strconv.ParseUint(string(fields[2]), 16, 32)
	if err != nil || len(fields[2]) != 8 || bytes.ContainsAny(fields[2], "ABCDEF") {
		return fmt.Errorf("bad checksum field %.20q", fields[2])
	}
	size, ok := parseLength(fields[3], f.Max)
	if !ok {
		return fmt.Errorf("bad length field %.20q", fields[3])
	}
	payload := fields[4]
	if len(payload) != size {
		return fmt.Errorf("payload is %d bytes, header says %d", len(payload), size)
	}
	if got := Checksum(payload); got != uint32(sum) {
		return fmt.Errorf("checksum mismatch: header %08x, payload %08x", sum, got)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("payload: %v", err)
	}
	return nil
}

// parseLength parses a canonical decimal length (digits only, no leading
// zeros) no larger than max.
func parseLength(b []byte, max int) (int, bool) {
	if len(b) == 0 || len(b) > 1 && b[0] == '0' {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int(c-'0'); n > max {
			return 0, false
		}
	}
	return n, true
}
