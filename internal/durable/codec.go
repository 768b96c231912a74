// Package durable provides the low-level persistence primitives the
// keyword-search engine's durability layer is built on:
//
//   - Enc / Dec: a deterministic little-endian binary codec (varints,
//     length-prefixed strings, typed slices) used by every package that
//     serialises part of an engine snapshot. Encoding the same logical
//     state always yields the same bytes — snapshots are byte-stable
//     across runs — and decoding validates every length against the
//     remaining input, so corrupt files fail cleanly instead of
//     allocating unbounded memory.
//   - SnapshotWriter / SnapshotReader: a versioned, sectioned container
//     format. Each section is a named, length-prefixed, CRC-checksummed
//     payload; readers can verify, decode, or skip sections by name, so
//     the format grows additively (an old reader skips sections it does
//     not know, a new reader tolerates their absence).
//   - WAL (wal.go): a length-prefixed, CRC'd, epoch-stamped mutation
//     write-ahead log with torn-tail recovery.
//
// The package deliberately depends only on the standard library: the
// storage layers (relstore, invindex, qcache) import it to encode
// their own state, and the engine composes those sections into one
// snapshot file.
package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// snapMagic identifies a snapshot container; the trailing digit is the
// container format version (section framing, not section contents —
// each section carries its own evolution via presence/absence).
var snapMagic = []byte("KSNAPv1\n")

// castagnoli is the CRC-32C table shared by sections and WAL records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Enc accumulates a deterministic binary encoding. The zero value is
// ready to use. Methods never fail; the resulting bytes are retrieved
// with Bytes.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded bytes (owned by the encoder).
func (e *Enc) Bytes() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(u uint64) {
	e.buf = binary.AppendUvarint(e.buf, u)
}

// Int appends a signed integer (zig-zag varint).
func (e *Enc) Int(v int) {
	e.buf = binary.AppendVarint(e.buf, int64(v))
}

// Bool appends a boolean as one byte.
func (e *Enc) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Byte appends one raw byte.
func (e *Enc) Byte(b byte) { e.buf = append(e.buf, b) }

// Float appends a float64 as its IEEE-754 bits (little-endian), so the
// encoding is bit-exact.
func (e *Enc) Float(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Ints appends a length-prefixed signed-int slice.
func (e *Enc) Ints(vs []int) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Int(v)
	}
}

// Strings appends a length-prefixed string slice.
func (e *Enc) Strings(vs []string) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.String(v)
	}
}

// Dec decodes bytes written by Enc. The first malformed read latches an
// error; subsequent reads return zero values, so decode sequences can
// run to completion and check Err once.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec wraps a byte slice for decoding.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// fail latches the first error.
func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("durable: truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return u
}

// Int reads a signed integer.
func (d *Dec) Int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("durable: truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return int(v)
}

// Bool reads a boolean byte.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("durable: truncated byte at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Float reads a float64.
func (d *Dec) Float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("durable: truncated float at offset %d", d.off)
		return 0
	}
	u := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(u)
}

// length reads a collection length and validates it against the
// remaining input (each element needs at least minBytes bytes), so a
// corrupt length cannot trigger an unbounded allocation.
func (d *Dec) length(minBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(d.Remaining()/minBytes) {
		d.fail("durable: declared length %d exceeds remaining input (%d bytes)", n, d.Remaining())
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Ints reads a length-prefixed signed-int slice (nil when empty).
func (d *Dec) Ints() []int {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

// Strings reads a length-prefixed string slice (nil when empty).
func (d *Dec) Strings() []string {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out
}

// SnapshotWriter writes a sectioned snapshot container. Sections are
// written in call order; Close appends the end marker. Every section is
// CRC-32C checksummed independently, so corruption is detected at the
// granularity of the subsystem it hits.
type SnapshotWriter struct {
	w   io.Writer
	err error
}

// NewSnapshotWriter writes the container magic and returns the writer.
func NewSnapshotWriter(w io.Writer) (*SnapshotWriter, error) {
	if _, err := w.Write(snapMagic); err != nil {
		return nil, fmt.Errorf("durable: write magic: %w", err)
	}
	return &SnapshotWriter{w: w}, nil
}

// Section writes one named section with its CRC. Payload bytes are
// owned by the caller and not retained.
func (sw *SnapshotWriter) Section(name string, payload []byte) error {
	if sw.err != nil {
		return sw.err
	}
	if name == "" || name == endSection {
		return fmt.Errorf("durable: invalid section name %q", name)
	}
	sw.err = sw.writeSection(name, payload)
	return sw.err
}

// endSection terminates the section stream.
const endSection = "end"

func (sw *SnapshotWriter) writeSection(name string, payload []byte) error {
	var hdr Enc
	hdr.String(name)
	hdr.Uvarint(uint64(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	for _, b := range [][]byte{hdr.Bytes(), crc[:], payload} {
		if _, err := sw.w.Write(b); err != nil {
			return fmt.Errorf("durable: write section %s: %w", name, err)
		}
	}
	return nil
}

// Close writes the end marker. It does not close the underlying writer.
func (sw *SnapshotWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	sw.err = sw.writeSection(endSection, nil)
	return sw.err
}

// SnapshotReader iterates the sections of a snapshot container.
type SnapshotReader struct {
	r   *byteScanner
	err error
}

// byteScanner adapts an io.Reader for varint-by-varint header reads.
type byteScanner struct {
	r   io.Reader
	one [1]byte
}

func (b *byteScanner) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

func (b *byteScanner) Read(p []byte) (int, error) { return b.r.Read(p) }

// NewSnapshotReader validates the container magic.
func NewSnapshotReader(r io.Reader) (*SnapshotReader, error) {
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("durable: read magic: %w", err)
	}
	if string(magic) != string(snapMagic) {
		return nil, fmt.Errorf("durable: not a snapshot file (bad magic %q)", magic)
	}
	return &SnapshotReader{r: &byteScanner{r: r}}, nil
}

// maxSectionName bounds section-name reads on corrupt input.
const maxSectionName = 256

// Next returns the next section's name and verified payload, or io.EOF
// after the end marker. A CRC mismatch or malformed framing returns an
// error naming the section.
func (sr *SnapshotReader) Next() (string, []byte, error) {
	if sr.err != nil {
		return "", nil, sr.err
	}
	nameLen, err := binary.ReadUvarint(sr.r)
	if err != nil {
		sr.err = fmt.Errorf("durable: read section header: %w", err)
		return "", nil, sr.err
	}
	if nameLen == 0 || nameLen > maxSectionName {
		sr.err = fmt.Errorf("durable: invalid section name length %d", nameLen)
		return "", nil, sr.err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(sr.r, name); err != nil {
		sr.err = fmt.Errorf("durable: read section name: %w", err)
		return "", nil, sr.err
	}
	payloadLen, err := binary.ReadUvarint(sr.r)
	if err != nil {
		sr.err = fmt.Errorf("durable: section %s: read length: %w", name, err)
		return "", nil, sr.err
	}
	var crc [4]byte
	if _, err := io.ReadFull(sr.r, crc[:]); err != nil {
		sr.err = fmt.Errorf("durable: section %s: read checksum: %w", name, err)
		return "", nil, sr.err
	}
	payload, err := readN(sr.r, payloadLen)
	if err != nil {
		sr.err = fmt.Errorf("durable: section %s: read payload: %w", name, err)
		return "", nil, sr.err
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(crc[:]); got != want {
		sr.err = fmt.Errorf("durable: section %s: checksum mismatch (got %08x, want %08x)", name, got, want)
		return "", nil, sr.err
	}
	if string(name) == endSection {
		sr.err = io.EOF
		return "", nil, io.EOF
	}
	return string(name), payload, nil
}

// readN reads exactly n bytes without trusting n for the allocation
// size: growth is incremental, so a corrupt declared length is bounded
// by the input's actual size instead of the declared one.
func readN(r io.Reader, n uint64) ([]byte, error) {
	if n > math.MaxInt64/2 {
		return nil, fmt.Errorf("implausible payload length %d", n)
	}
	var buf bytes.Buffer
	const preGrow = 1 << 20
	if n < preGrow {
		buf.Grow(int(n))
	} else {
		buf.Grow(preGrow)
	}
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
