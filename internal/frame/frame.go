// Package frame owns the repo's CRC-framed record formats and their
// checksum. A Format frames one JSON payload under the header
// "MAGIC VERSION CRC32C PAYLOADLEN", where CRC32C is eight lowercase hex
// digits of the CRC-32/Castagnoli of the payload and PAYLOADLEN its byte
// count in decimal, in one of two layouts. A line (Append, Decode) is the
// header, a space, the payload and a newline; every durable line record
// (job journal, lease claim and heartbeat, dedupe index entry, lifecycle
// span) is one. A blob (WriteBlob, ReadBlob) is the header and a newline,
// then the payload with no trailing newline; Stage 1 checkpoints are
// blobs. One function formats the header and one parses it, in the one
// canonical form, for both layouts. The checksum and the explicit length
// let a reader reject torn or bit-rotted records; what a record type does
// with a bad one is its own policy.
package frame

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32/Castagnoli of b: the header checksum, and the
// one the job store journals for result artifacts.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Format is one record type's framing: its magic word, its exact version,
// and the largest JSON payload either side accepts.
type Format struct {
	Magic   string
	Version int
	Max     int
}

// marshal JSON-encodes v, refusing a payload over f.Max so nothing is
// written that a decoder would reject.
func (f Format) marshal(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if len(payload) > f.Max {
		return nil, fmt.Errorf("payload is %d bytes, limit %d", len(payload), f.Max)
	}
	return payload, nil
}

// appendHeader appends the canonical header of payload to dst.
func (f Format) appendHeader(dst, payload []byte) []byte {
	return fmt.Appendf(dst, "%s %d %08x %d", f.Magic, f.Version, Checksum(payload), len(payload))
}

// Append JSON-marshals v and appends its framed line to dst. A payload over
// f.Max is refused, so nothing is written that Decode would reject.
func (f Format) Append(dst []byte, v any) ([]byte, error) {
	payload, err := f.marshal(v)
	if err != nil {
		return dst, err
	}
	dst = append(f.appendHeader(dst, payload), ' ')
	dst = append(dst, payload...)
	return append(dst, '\n'), nil
}

// WriteBlob JSON-marshals v and writes it to w as a blob: the header line,
// then the payload with no trailing newline. A payload over f.Max is
// refused before anything is written.
func (f Format) WriteBlob(w io.Writer, v any) error {
	payload, err := f.marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(append(f.appendHeader(nil, payload), '\n'), payload...))
	return err
}

// Decode verifies one framed line (a trailing newline is allowed) and
// strictly decodes its payload into v. It checks, in order: a single line,
// the header (parseHeader), a payload of the declared length, the checksum,
// and a JSON payload with no unknown fields and nothing after it. It never
// panics on malformed input.
func (f Format) Decode(line []byte, v any) error {
	line = bytes.TrimSuffix(line, []byte("\n"))
	if bytes.IndexByte(line, '\n') >= 0 {
		return fmt.Errorf("record spans multiple lines")
	}
	fields := bytes.SplitN(line, []byte(" "), 5)
	if len(fields) != 5 {
		return fmt.Errorf("malformed record %.40q", line)
	}
	sum, size, err := f.parseHeader(fields[:4])
	if err != nil {
		return err
	}
	payload := fields[4]
	if len(payload) != size {
		return fmt.Errorf("payload is %d bytes, header says %d", len(payload), size)
	}
	return decodePayload(payload, sum, v)
}

// ReadBlob reads one blob from br and strictly decodes its payload into v,
// with Decode's checks. It reads the header line (which must fit br's
// buffer), then the payload incrementally and never past the declared
// length, so a forged length can neither force a large allocation nor
// consume what follows the blob. It never panics on malformed input.
func (f Format) ReadBlob(br *bufio.Reader, v any) error {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("header: %w", err)
	}
	fields := bytes.SplitN(line[:len(line)-1], []byte(" "), 4)
	if len(fields) != 4 {
		return fmt.Errorf("malformed header %.40q", line)
	}
	sum, size, err := f.parseHeader(fields)
	if err != nil {
		return err
	}
	payload, err := io.ReadAll(io.LimitReader(br, int64(size)))
	if err != nil {
		return fmt.Errorf("payload: %w", err)
	}
	if len(payload) != size {
		return fmt.Errorf("truncated: %d of %d payload bytes", len(payload), size)
	}
	return decodePayload(payload, sum, v)
}

// parseHeader checks the four header fields in the one form appendHeader
// writes: the magic, the exact version, an eight-digit lowercase hex
// checksum, and a decimal length without leading zeros within f.Max. It
// returns the checksum and the length.
func (f Format) parseHeader(fields [][]byte) (sum uint32, size int, err error) {
	if string(fields[0]) != f.Magic {
		return 0, 0, fmt.Errorf("bad magic %.20q", fields[0])
	}
	if string(fields[1]) != strconv.Itoa(f.Version) {
		return 0, 0, fmt.Errorf("unsupported version %.20q", fields[1])
	}
	s, err := strconv.ParseUint(string(fields[2]), 16, 32)
	if err != nil || len(fields[2]) != 8 || bytes.ContainsAny(fields[2], "ABCDEF") {
		return 0, 0, fmt.Errorf("bad checksum field %.20q", fields[2])
	}
	size, ok := parseLength(fields[3], f.Max)
	if !ok {
		return 0, 0, fmt.Errorf("bad length field %.20q: not a payload size in 0..%d", fields[3], f.Max)
	}
	return uint32(s), size, nil
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

// decodePayload checks payload against the header checksum and decodes it
// into v: one JSON value, no unknown fields, nothing after it.
func decodePayload(payload []byte, sum uint32, v any) error {
	if got := Checksum(payload); got != sum {
		return fmt.Errorf("checksum mismatch: header %08x, payload %08x", sum, got)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("payload: %v", err)
	}
	if dec.InputOffset() != int64(len(payload)) {
		return fmt.Errorf("payload: data after the JSON value")
	}
	return nil
}
