// Package ckpt is the checkpoint serialization substrate: a compact
// binary codec (varints, zigzag deltas, bit-exact floats, packed bitsets)
// plus a sectioned container format with per-section CRC integrity and an
// allocation-capped strict reader.
//
// The package is deliberately leaf-level (stdlib only) so every component
// package — sim, cache, cpu, coherence, mem, noc, topo, workload, opensys,
// chip — can implement the Saver/Loader contract against it without import
// cycles. Components serialize *behavioral* private state (queues, arrays,
// cursors, RNG positions); measurement statistics are excluded by
// convention and re-zeroed on the restore path, exactly as the warmup
// boundary zeroes them.
//
// # Container format
//
// A checkpoint is a flat sequence of sections:
//
//	magic   "NOCK" (4 bytes)
//	version uvarint (currently 1)
//	section*:
//	  kind    uvarint  (component kind, caller-defined)
//	  length  uvarint  (payload bytes)
//	  crc32   4 bytes LE (IEEE, over the payload)
//	  payload length bytes
//
// Sections end at EOF; trailing garbage after a well-formed section is an
// error. The reader parses only headers up front — payloads stay raw
// subslices of the input and are CRC-verified lazily when a section is
// opened, so inspecting a checkpoint's index touches no section body.
//
// # Strictness
//
// The reader never trusts a decoded length: the whole input is bounded by
// MaxCheckpointBytes, section payloads must lie inside the input, and
// every decoded element count is validated against the bytes that could
// possibly encode that many elements before anything is allocated.
// Corrupt or truncated inputs produce errors, never panics or oversized
// allocations (FuzzReadCheckpoint enforces this).
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Version is the container format version this package writes.
const Version = 1

// MaxCheckpointBytes bounds a whole checkpoint (256MB): a 64-core chip's
// warm state is tens of MB, so the cap is generous while still refusing
// absurd inputs outright.
const MaxCheckpointBytes = 1 << 28

// maxSections bounds the section count a reader will index.
const maxSections = 1 << 16

var magic = [4]byte{'N', 'O', 'C', 'K'}

// Saver is implemented by components that can serialize their private
// behavioral state into a checkpoint section.
type Saver interface {
	SaveState(e *Enc)
}

// Loader is the inverse contract; decode failures land in the Dec's
// sticky error, which the orchestrator checks once per section.
type Loader interface {
	LoadState(d *Dec)
}

// --- encoder ----------------------------------------------------------------

// Enc is an append-only checkpoint section encoder. The zero value is
// ready to use.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded section payload.
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the encoded size so far.
func (e *Enc) Len() int { return len(e.buf) }

// Reset empties the encoder, retaining its storage.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// U64 appends an unsigned varint.
func (e *Enc) U64(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// I64 appends a signed (zigzag) varint.
func (e *Enc) I64(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Int appends an int as a signed varint.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends a float bit-exactly as 8 fixed little-endian bytes.
func (e *Enc) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s appends a delta-encoded uint64 array: the count, then each
// element as a zigzag varint of its delta from the predecessor (first
// delta is from zero). Sorted or clustered arrays — cache tags, LRU age
// stamps, sorted map keys — compress to a byte or two per element.
func (e *Enc) U64s(vs []uint64) { U64sFrom(e, vs) }

// U64sFrom is Enc.U64s for any element type U64sInto restores, with no
// widened copy: an []int32 element is written as uint64(uint32(v)), the
// bytes Enc.U64s writes for that widening.
func U64sFrom[T ~uint64 | ~int32](e *Enc, vs []T) {
	mask := ^uint64(0)
	if ^T(0) < 0 { // int32: keep the low 32 bits, as U64sInto truncates
		mask = math.MaxUint32
	}
	e.U64(uint64(len(vs)))
	prev := uint64(0)
	for _, v := range vs {
		u := uint64(v) & mask
		e.I64(int64(u - prev))
		prev = u
	}
}

// Bools appends a packed bitset: the count, then ceil(n/8) bytes.
func (e *Enc) Bools(vs []bool) {
	e.U64(uint64(len(vs)))
	var b byte
	for i, v := range vs {
		if v {
			b |= 1 << (uint(i) % 8)
		}
		if i%8 == 7 {
			e.buf = append(e.buf, b)
			b = 0
		}
	}
	if len(vs)%8 != 0 {
		e.buf = append(e.buf, b)
	}
}

// --- decoder ----------------------------------------------------------------

// Dec decodes one section payload with a sticky error: after the first
// failure every subsequent read returns zero values, so call sites stay
// linear and the orchestrator checks Err once per section.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{b: payload} }

// Err returns the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns the undecoded byte count.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

// Corrupt records a semantic corruption found by a component decoder
// (geometry mismatch, impossible occupancy); it sticks like any other
// decode failure.
func (d *Dec) Corrupt(format string, args ...any) { d.fail(format, args...) }

// U64 reads an unsigned varint.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or malformed uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// I64 reads a signed (zigzag) varint.
func (d *Dec) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads an int.
func (d *Dec) Int() int { return int(d.I64()) }

// Bool reads a boolean byte; values other than 0/1 are corruption.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.fail("invalid bool byte %d at offset %d", v, d.off-1)
		return false
	}
	return v == 1
}

// F64 reads a bit-exact float.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("truncated float at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds %d remaining bytes", n, d.Remaining())
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Count reads an element count for a sequence whose elements each encode
// to at least one byte, validating it against the remaining input before
// the caller allocates — a corrupt count cannot force an oversized
// allocation.
func (d *Dec) Count() int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail("element count %d exceeds %d remaining bytes", n, d.Remaining())
		return 0
	}
	return int(n)
}

// U64s reads a delta-encoded array written by Enc.U64s.
func (d *Dec) U64s() []uint64 {
	n := d.Count()
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	deltas(d, vs)
	if d.err != nil {
		return nil
	}
	return vs
}

// U64sInto reads an array written by Enc.U64s straight into dst, whose
// length must equal the stored count; a mismatch is corruption. Element
// types narrower than 64 bits take the low bits of each value, so a
// []int32 restores what U64sFrom saved from one. It is a function
// rather than a method because Go methods cannot take type parameters.
// On error dst may be partly overwritten.
func U64sInto[T ~uint64 | ~int32](d *Dec, dst []T) {
	if n := d.Count(); d.err == nil && n != len(dst) {
		d.fail("array of %d elements, built %d", n, len(dst))
	}
	deltas(d, dst)
}

// deltas decodes len(dst) zigzag deltas into dst.
func deltas[T ~uint64 | ~int32](d *Dec, dst []T) {
	if d.err != nil {
		return
	}
	prev := uint64(0)
	for i := range dst {
		prev += uint64(d.I64())
		dst[i] = T(prev)
	}
}

// Bools reads a packed bitset written by Enc.Bools.
func (d *Dec) Bools() []bool {
	n := d.bitCount()
	if d.err != nil {
		return nil
	}
	vs := make([]bool, n)
	d.bits(vs)
	return vs
}

// BoolsInto reads a bitset written by Enc.Bools straight into dst, whose
// length must equal the stored count; a mismatch is corruption.
func (d *Dec) BoolsInto(dst []bool) {
	if n := d.bitCount(); d.err == nil && n != len(dst) {
		d.fail("bitset of %d bits, built %d", n, len(dst))
	}
	d.bits(dst)
}

// bitCount reads a bitset's length, validating its packed bytes against
// the remaining input.
func (d *Dec) bitCount() int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if (n+7)/8 > uint64(d.Remaining()) {
		d.fail("bitset of %d bits exceeds %d remaining bytes", n, d.Remaining())
		return 0
	}
	return int(n)
}

// bits unpacks len(dst) bits, whose bytes bitCount has validated.
func (d *Dec) bits(dst []bool) {
	if d.err != nil {
		return
	}
	for i := range dst {
		dst[i] = d.b[d.off+i/8]&(1<<(uint(i)%8)) != 0
	}
	d.off += (len(dst) + 7) / 8
}

// --- container --------------------------------------------------------------

// Section is one component's serialized state inside a container.
type Section struct {
	Kind    uint64
	payload []byte
	crc     uint32
}

// Len returns the payload size in bytes.
func (s *Section) Len() int { return len(s.payload) }

// Writer streams a container to an io.Writer.
type Writer struct {
	w   io.Writer
	err error
	hdr []byte
}

// NewWriter writes the container preamble and returns the writer.
func NewWriter(w io.Writer) *Writer {
	cw := &Writer{w: w}
	var buf []byte
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, Version)
	cw.write(buf)
	return cw
}

func (cw *Writer) write(b []byte) {
	if cw.err != nil {
		return
	}
	_, cw.err = cw.w.Write(b)
}

// Section appends one section (header, CRC, payload). The payload is
// written immediately; callers may reuse the encoder afterwards.
func (cw *Writer) Section(kind uint64, payload []byte) {
	cw.hdr = cw.hdr[:0]
	cw.hdr = binary.AppendUvarint(cw.hdr, kind)
	cw.hdr = binary.AppendUvarint(cw.hdr, uint64(len(payload)))
	cw.hdr = binary.LittleEndian.AppendUint32(cw.hdr, crc32.ChecksumIEEE(payload))
	cw.write(cw.hdr)
	cw.write(payload)
}

// Err returns the first underlying write failure, or nil.
func (cw *Writer) Err() error { return cw.err }

// Container is a parsed checkpoint: the section index plus raw payload
// views into the input buffer. Payload integrity is verified lazily by
// Open.
type Container struct {
	Version  uint64
	sections []Section
}

// ErrNotCheckpoint marks inputs without the container magic.
var ErrNotCheckpoint = errors.New("ckpt: not a NOCK checkpoint")

// Read parses a container from r, bounded by MaxCheckpointBytes. Only
// headers are validated here; section payloads are CRC-checked when
// opened.
func Read(r io.Reader) (*Container, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxCheckpointBytes+1))
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading checkpoint: %w", err)
	}
	if len(data) > MaxCheckpointBytes {
		return nil, fmt.Errorf("ckpt: checkpoint exceeds the %d-byte cap", MaxCheckpointBytes)
	}
	return Parse(data)
}

// Parse parses a container from an in-memory buffer the Container will
// alias (callers must not mutate data afterwards).
func Parse(data []byte) (*Container, error) {
	if len(data) > MaxCheckpointBytes {
		return nil, fmt.Errorf("ckpt: checkpoint exceeds the %d-byte cap", MaxCheckpointBytes)
	}
	if len(data) < len(magic) || [4]byte(data[:4]) != magic {
		return nil, ErrNotCheckpoint
	}
	off := len(magic)
	ver, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, errors.New("ckpt: truncated version")
	}
	off += n
	if ver != Version {
		return nil, fmt.Errorf("ckpt: unsupported container version %d (want %d)", ver, Version)
	}
	c := &Container{Version: ver}
	for off < len(data) {
		if len(c.sections) >= maxSections {
			return nil, fmt.Errorf("ckpt: more than %d sections", maxSections)
		}
		kind, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("ckpt: truncated section kind at offset %d", off)
		}
		off += n
		length, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("ckpt: truncated section length at offset %d", off)
		}
		off += n
		if off+4 > len(data) {
			return nil, fmt.Errorf("ckpt: truncated section CRC at offset %d", off)
		}
		crc := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if length > uint64(len(data)-off) {
			return nil, fmt.Errorf("ckpt: section kind %d claims %d bytes with %d remaining", kind, length, len(data)-off)
		}
		c.sections = append(c.sections, Section{
			Kind:    kind,
			payload: data[off : off+int(length)],
			crc:     crc,
		})
		off += int(length)
	}
	return c, nil
}

// Len returns the section count.
func (c *Container) Len() int { return len(c.sections) }

// Kind returns section i's kind.
func (c *Container) Kind(i int) uint64 { return c.sections[i].Kind }

// SectionLen returns section i's payload size.
func (c *Container) SectionLen(i int) int { return len(c.sections[i].payload) }

// Open CRC-verifies section i and returns a decoder over its payload.
func (c *Container) Open(i int) (*Dec, error) {
	if i < 0 || i >= len(c.sections) {
		return nil, fmt.Errorf("ckpt: section %d out of range (have %d)", i, len(c.sections))
	}
	s := &c.sections[i]
	if got := crc32.ChecksumIEEE(s.payload); got != s.crc {
		return nil, fmt.Errorf("ckpt: section %d (kind %d) CRC mismatch: stored %08x, computed %08x", i, s.Kind, s.crc, got)
	}
	return NewDec(s.payload), nil
}
