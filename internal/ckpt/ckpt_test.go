package ckpt

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestCodecRoundTrip drives every Enc primitive through its Dec inverse
// in one interleaved payload — the same shape component SaveState/
// LoadState pairs produce.
func TestCodecRoundTrip(t *testing.T) {
	var e Enc
	e.U64(0)
	e.U64(1)
	e.U64(math.MaxUint64)
	e.I64(0)
	e.I64(-1)
	e.I64(math.MinInt64)
	e.I64(math.MaxInt64)
	e.Int(-42)
	e.Bool(true)
	e.Bool(false)
	e.F64(0)
	e.F64(math.Copysign(0, -1))
	e.F64(math.Inf(1))
	e.F64(math.Pi)
	e.String("")
	e.String("warm state")
	e.U64s(nil)
	e.U64s([]uint64{7, 7, 9, 1 << 40, 3}) // non-monotonic: deltas go negative
	e.Bools(nil)
	e.Bools([]bool{true, false, true, true, false, false, true, true, true}) // 9 bits: ragged tail byte

	d := NewDec(e.Bytes())
	check := func(name string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
	check("u64 zero", d.U64(), uint64(0))
	check("u64 one", d.U64(), uint64(1))
	check("u64 max", d.U64(), uint64(math.MaxUint64))
	check("i64 zero", d.I64(), int64(0))
	check("i64 -1", d.I64(), int64(-1))
	check("i64 min", d.I64(), int64(math.MinInt64))
	check("i64 max", d.I64(), int64(math.MaxInt64))
	check("int", d.Int(), -42)
	check("bool true", d.Bool(), true)
	check("bool false", d.Bool(), false)
	check("f64 zero", d.F64(), 0.0)
	if f := d.F64(); !math.Signbit(f) || f != 0 {
		t.Errorf("negative zero not bit-exact: got %v (signbit %v)", f, math.Signbit(f))
	}
	check("f64 inf", d.F64(), math.Inf(1))
	check("f64 pi", d.F64(), math.Pi)
	check("string empty", d.String(), "")
	check("string", d.String(), "warm state")
	check("u64s nil", d.U64s(), []uint64(nil))
	check("u64s", d.U64s(), []uint64{7, 7, 9, 1 << 40, 3})
	if bs := d.Bools(); len(bs) != 0 {
		t.Errorf("bools nil: got %v, want empty", bs)
	}
	check("bools", d.Bools(), []bool{true, false, true, true, false, false, true, true, true})
	if err := d.Err(); err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes after full decode", d.Remaining())
	}
}

// TestDecStickyError checks the decoder's central contract: the first
// failure sticks, later reads return zero values, and no read past the
// failure can panic.
func TestDecStickyError(t *testing.T) {
	d := NewDec([]byte{0x80}) // truncated varint
	if v := d.U64(); v != 0 {
		t.Fatalf("failed read returned %d, want 0", v)
	}
	first := d.Err()
	if first == nil {
		t.Fatal("truncated varint did not fail")
	}
	// Every primitive after the failure is a zero-value no-op.
	if d.I64() != 0 || d.Int() != 0 || d.Bool() || d.F64() != 0 ||
		d.String() != "" || d.U64s() != nil || d.Bools() != nil || d.Count() != 0 {
		t.Fatal("reads after a sticky error returned non-zero values")
	}
	if d.Err() != first {
		t.Fatalf("sticky error was replaced: %v -> %v", first, d.Err())
	}
	// Corrupt after a failure must not mask the original error either.
	d.Corrupt("late corruption")
	if d.Err() != first {
		t.Fatal("Corrupt replaced the first error")
	}
}

// TestDecHostileLengths feeds each length-prefixed decoder a count far
// larger than the remaining input: all must error before allocating.
func TestDecHostileLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<50)
	cases := map[string]func(*Dec){
		"string": func(d *Dec) { _ = d.String() },
		"count":  func(d *Dec) { d.Count() },
		"u64s":   func(d *Dec) { d.U64s() },
		"bools":  func(d *Dec) { d.Bools() },
	}
	for name, read := range cases {
		d := NewDec(huge)
		read(d)
		if d.Err() == nil {
			t.Errorf("%s accepted a 2^50 length with %d input bytes", name, len(huge))
		}
	}
	// Bool rejects non-0/1 bytes outright.
	d := NewDec([]byte{7})
	d.Bool()
	if d.Err() == nil {
		t.Error("Bool accepted byte 7")
	}

	// The in-place decoders also reject a stored count that differs from
	// the built slice, and a payload truncated mid-array. Each dst is the
	// front of a larger sentinel-filled backing array, so a write past
	// dst would show.
	var e Enc
	e.U64s([]uint64{5, 6, 7, 8})
	u64s := e.Bytes()
	e = Enc{}
	e.Bools(make([]bool, 20))
	bools := e.Bytes()
	inputs := map[string][]byte{
		"huge":      huge,
		"truncated": u64s[:len(u64s)-1],
	}
	for name, in := range inputs {
		for _, n := range []int{3, 4, 5} {
			back := []uint64{1, 1, 1, 1, 1, 1, 1, 1}
			d := NewDec(in)
			U64sInto(d, back[:n])
			if d.Err() == nil {
				t.Errorf("U64sInto(%s) into %d elements accepted", name, n)
			}
			for i, v := range back[n:] {
				if v != 1 {
					t.Errorf("U64sInto(%s) wrote element %d past a %d-element dst", name, n+i, n)
				}
			}
		}
	}
	for _, n := range []int{3, 5} {
		back := []int32{1, 1, 1, 1, 1, 1, 1, 1}
		d := NewDec(u64s)
		U64sInto(d, back[:n])
		if d.Err() == nil || back[n] != 1 {
			t.Errorf("U64sInto: 4 stored elements into a %d-element []int32: err %v, past dst %d", n, d.Err(), back[n])
		}
	}
	inputs = map[string][]byte{
		"huge":      huge,
		"truncated": bools[:len(bools)-1],
		"mismatch":  bools,
	}
	for name, in := range inputs {
		back := make([]bool, 40)
		back[19] = true
		d := NewDec(in)
		d.BoolsInto(back[:19])
		if d.Err() == nil {
			t.Errorf("BoolsInto(%s) into 19 bits accepted", name)
		}
		if !back[19] {
			t.Errorf("BoolsInto(%s) wrote past a 19-bit dst", name)
		}
	}
}

// TestDecodeInPlace checks that the in-place decoders read exactly what
// their allocating twins read, that []int32 restores values saved
// through uint32 (-1 as 0xffffffff), and that U64sFrom writes an []int32
// byte for byte as U64s writes that widening.
func TestDecodeInPlace(t *testing.T) {
	owners := []int32{-1, 3, -1, 0, 63}
	wide := make([]uint64, len(owners))
	for i, o := range owners {
		wide[i] = uint64(uint32(o))
	}
	bits := []bool{true, false, false, true, true, false, true, false, true}
	var e Enc
	e.U64s(wide)
	e.Bools(bits)
	e.U64s(nil)
	d := NewDec(e.Bytes())
	gotWide := make([]uint64, len(wide))
	U64sInto(d, gotWide)
	gotBits := make([]bool, len(bits))
	d.BoolsInto(gotBits)
	U64sInto(d, []uint64{})
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("in-place decode: err %v, %d bytes left", d.Err(), d.Remaining())
	}
	if !reflect.DeepEqual(gotWide, wide) || !reflect.DeepEqual(gotBits, bits) {
		t.Fatalf("in-place decode: %v %v, want %v %v", gotWide, gotBits, wide, bits)
	}
	d = NewDec(e.Bytes())
	gotOwners := make([]int32, len(owners))
	U64sInto(d, gotOwners)
	if d.Err() != nil || !reflect.DeepEqual(gotOwners, owners) {
		t.Fatalf("int32 decode: %v (err %v), want %v", gotOwners, d.Err(), owners)
	}

	edges := append(owners, math.MinInt32, math.MaxInt32, -2)
	var direct, widened Enc
	U64sFrom(&direct, edges)
	wideEdges := make([]uint64, len(edges))
	for i, o := range edges {
		wideEdges[i] = uint64(uint32(o))
	}
	widened.U64s(wideEdges)
	if !bytes.Equal(direct.Bytes(), widened.Bytes()) {
		t.Fatalf("U64sFrom(%v) = % x, U64s of its widening = % x", edges, direct.Bytes(), widened.Bytes())
	}
}

func TestCorruptReportsFirstFailure(t *testing.T) {
	d := NewDec(nil)
	d.Corrupt("bank %d occupancy impossible", 3)
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "bank 3") {
		t.Fatalf("Corrupt error = %v", d.Err())
	}
}

// buildContainer writes a well-formed two-section container for the
// reader tests and the fuzz seed corpus.
func buildContainer(t testing.TB) []byte {
	t.Helper()
	var e Enc
	e.U64(11)
	e.String("section one")
	var buf bytes.Buffer
	cw := NewWriter(&buf)
	cw.Section(4, e.Bytes())
	e.Reset()
	e.U64s([]uint64{1, 2, 3})
	cw.Section(9, e.Bytes())
	cw.Section(2, nil) // empty payloads are legal
	if err := cw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	data := buildContainer(t)
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != Version {
		t.Fatalf("version %d, want %d", c.Version, Version)
	}
	if c.Len() != 3 {
		t.Fatalf("section count %d, want 3", c.Len())
	}
	wantKinds := []uint64{4, 9, 2}
	for i, k := range wantKinds {
		if c.Kind(i) != k {
			t.Fatalf("section %d kind %d, want %d", i, c.Kind(i), k)
		}
	}
	d, err := c.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.U64(); v != 11 {
		t.Fatalf("section 0 first value %d, want 11", v)
	}
	if s := d.String(); s != "section one" {
		t.Fatalf("section 0 string %q", s)
	}
	d, err = c.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	if vs := d.U64s(); !reflect.DeepEqual(vs, []uint64{1, 2, 3}) {
		t.Fatalf("section 1 array %v", vs)
	}
	if c.SectionLen(2) != 0 {
		t.Fatalf("empty section length %d", c.SectionLen(2))
	}
	if _, err := c.Open(3); err == nil {
		t.Fatal("out-of-range Open succeeded")
	}
	// Read must agree with Parse.
	c2, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("Read section count %d, Parse %d", c2.Len(), c.Len())
	}
}

// TestContainerRejectsCorruption flips, truncates, and inflates a valid
// container; every mutation must surface as an error, at parse time or
// when the damaged section is opened.
func TestContainerRejectsCorruption(t *testing.T) {
	valid := buildContainer(t)

	if _, err := Parse([]byte("not a checkpoint")); err != ErrNotCheckpoint {
		t.Fatalf("wrong magic: err = %v, want ErrNotCheckpoint", err)
	}
	if _, err := Parse(valid[:3]); err != ErrNotCheckpoint {
		t.Fatalf("short magic: err = %v, want ErrNotCheckpoint", err)
	}
	if _, err := Parse(valid[:4]); err == nil {
		t.Fatal("missing version accepted")
	}
	bad := append([]byte{}, valid...)
	bad[4] = 0x7F // version 127
	if _, err := Parse(bad); err == nil {
		t.Fatal("future version accepted")
	}
	for _, cut := range []int{6, 9, len(valid) - 1} {
		if _, err := Parse(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Parse(append(append([]byte{}, valid...), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A payload bit flip parses (headers are intact) but fails Open.
	bad = append([]byte{}, valid...)
	bad[len(bad)-8] ^= 0x10
	c, err := Parse(bad)
	if err != nil {
		t.Fatalf("payload flip failed Parse: %v", err)
	}
	opened := 0
	for i := 0; i < c.Len(); i++ {
		if _, err := c.Open(i); err != nil {
			opened++
		}
	}
	if opened == 0 {
		t.Fatal("payload bit flip passed every section CRC")
	}
	// A section claiming more bytes than the input holds dies at Parse.
	hostile := append([]byte{}, magic[:]...)
	hostile = binary.AppendUvarint(hostile, Version)
	hostile = binary.AppendUvarint(hostile, 1)     // kind
	hostile = binary.AppendUvarint(hostile, 1<<40) // absurd length
	hostile = append(hostile, 0, 0, 0, 0)          // crc
	if _, err := Parse(hostile); err == nil {
		t.Fatal("2^40-byte section claim accepted")
	}
	if _, err := Parse(make([]byte, MaxCheckpointBytes+1)); err == nil {
		t.Fatal("over-cap input accepted")
	}
}

// FuzzReadCheckpoint holds the container reader and the section decoders
// to the no-panic, no-oversized-allocation contract on arbitrary bytes:
// corrupt headers, truncated sections, and hostile lengths must produce
// errors — never a panic, never an allocation beyond the input size.
func FuzzReadCheckpoint(f *testing.F) {
	valid := buildContainer(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                           // truncated mid-section
	f.Add(valid[:5])                                      // magic + version only
	f.Add([]byte("NOCK"))                                 // magic only
	f.Add([]byte("nope"))                                 // wrong magic
	f.Add(append(append([]byte{}, valid...), 0xBE, 0xEF)) // trailing garbage
	// Huge claimed section length.
	f.Add([]byte{'N', 'O', 'C', 'K', 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that parses must stay inside the input when opened and
		// decoded: walk every section with every primitive until its
		// sticky error fires or the payload is exhausted.
		for i := 0; i < c.Len(); i++ {
			if c.SectionLen(i) > len(data) {
				t.Fatalf("section %d claims %d bytes from a %d-byte input", i, c.SectionLen(i), len(data))
			}
			d, err := c.Open(i)
			if err != nil {
				continue // CRC mismatch on fuzzer-mangled payload
			}
			for d.Err() == nil && d.Remaining() > 0 {
				d.U64()
				d.Bool()
				_ = d.String()
				d.U64s()
				d.Bools()
				d.F64()
			}
		}
	})
}
