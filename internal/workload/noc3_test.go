package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"nocout/internal/ckpt"
	"nocout/internal/cpu"
)

// writeNOC3Bytes records w into an in-memory NOC3 container.
func writeNOC3Bytes(t *testing.T, w Workload, cores, perCore int, seed uint64, blockLen int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteNOC3(&buf, w, cores, perCore, seed, blockLen); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func parseNOC3(t *testing.T, data []byte) *TraceFile {
	t.Helper()
	tf, err := ParseTraceBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

func TestNOC3RoundTrip(t *testing.T) {
	src := ConsolidatedMix() // heterogeneous: exercises per-core params + members
	const cores, perCore, seed = 4, 2000, 17
	tf := parseNOC3(t, writeNOC3Bytes(t, src, cores, perCore, seed, 128))
	if err := tf.Verify(); err != nil {
		t.Fatal(err)
	}
	if tf.Name() != "Consolidated" || tf.Seed() != seed || len(tf.cores) != cores {
		t.Fatalf("trace header: name %q seed %d cores %d", tf.Name(), tf.Seed(), len(tf.cores))
	}

	for core := 0; core < cores; core++ {
		ref := src.StreamFor(core, seed)
		st := tf.StreamFor(core, 99) // replay ignores the seed
		for i := 0; i < perCore; i++ {
			if got, want := st.Next(), ref.Next(); got != want {
				t.Fatalf("core %d record %d: %+v != %+v", core, i, got, want)
			}
		}
		if tf.MemberName(core) != src.MemberName(core) {
			t.Fatalf("core %d member %q != %q", core, tf.MemberName(core), src.MemberName(core))
		}
		if cp, want := tf.CoreParams(core, 5), src.CoreParams(core, 5); cp != want {
			t.Fatalf("core %d params %+v != %+v", core, cp, want)
		}
	}

	lay, ref := tf.Layout(), src.Layout()
	if lay.Instr != ref.Instr || lay.Hot != ref.Hot {
		t.Fatalf("shared regions: %+v/%+v != %+v/%+v", lay.Instr, lay.Hot, ref.Instr, ref.Hot)
	}
	for core := 0; core < cores; core++ {
		if lay.Local(core) != ref.Local(core) {
			t.Fatalf("core %d local region %+v != %+v", core, lay.Local(core), ref.Local(core))
		}
	}
}

func TestNOC3ReplayLoops(t *testing.T) {
	// 50 instructions at block length 16: the loop crosses a partial last
	// block and the wrap back to block 0.
	tf := parseNOC3(t, writeNOC3Bytes(t, Synth(WebSearch), 1, 50, 1, 16))
	st := tf.StreamFor(0, 1)
	var first [50]cpu.Instr
	for i := range first {
		first[i] = st.Next()
	}
	for round := 0; round < 3; round++ {
		for i := range first {
			if got := st.Next(); got != first[i] {
				t.Fatalf("round %d record %d: %+v != %+v", round, i, got, first[i])
			}
		}
	}
}

func TestNOC3MaxCoresClamp(t *testing.T) {
	tf := parseNOC3(t, writeNOC3Bytes(t, Synth(DataServing), 4, 10, 1, 0)) // source scales to 64
	if tf.MaxCores() != 4 {
		t.Fatalf("MaxCores = %d, must clamp to the 4 recorded cores", tf.MaxCores())
	}
	ws := parseNOC3(t, writeNOC3Bytes(t, Synth(WebSearch), 32, 10, 1, 0)) // source scales to 16
	if ws.MaxCores() != 16 {
		t.Fatalf("MaxCores = %d, want 16", ws.MaxCores())
	}
	// Cores beyond the recording reuse streams modulo the recorded count.
	a, b := tf.StreamFor(6, 1), tf.StreamFor(2, 1)
	for i := 0; i < 10; i++ {
		if a.Next() != b.Next() {
			t.Fatal("modulo stream reuse broken")
		}
	}
}

// TestNOC3FingerprintMatchesNOC2 is the cache-survival guarantee: the
// same recording fingerprints identically whether it lives in a legacy
// NOC2 capture, a streamed NOC3 recording, or a converted NOC3 file — so
// Point.Key and checkpoint prefixes survive a format conversion. The
// fingerprint is the SHA-256 of the canonical NOC2 encoding: for a NOC2
// file, of the file itself.
func TestNOC3FingerprintMatchesNOC2(t *testing.T) {
	legacy, err := LoadTrace(noc2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	fpNOC2, err := Fingerprint(legacy)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(readFixture(t))
	if want := "capture:" + hex.EncodeToString(sum[:]); string(fpNOC2) != want {
		t.Fatalf("NOC2 fingerprint %s, want the file's %s", fpNOC2, want)
	}
	recorded := parseNOC3(t, writeNOC3Bytes(t, ConsolidatedMix(), fixtureCores, fixturePerCore, fixtureSeed, 64))
	fpNOC3, err := Fingerprint(recorded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fpNOC2, fpNOC3) {
		t.Fatalf("fingerprint changed across formats:\n NOC2 %s\n NOC3 %s", fpNOC2, fpNOC3)
	}
	conv := filepath.Join(t.TempDir(), "conv.noctrace")
	if err := ConvertFile(noc2Fixture, conv); err != nil {
		t.Fatal(err)
	}
	converted, err := OpenTraceFile(conv)
	if err != nil {
		t.Fatal(err)
	}
	defer converted.Close()
	fpConv, err := Fingerprint(converted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fpNOC2, fpConv) {
		t.Fatalf("conversion changed the fingerprint:\n NOC2 %s\n conv %s", fpNOC2, fpConv)
	}
}

// TestNOC3SeekMatchesSequential is the block-boundary property test:
// restoring a cursor at any (block, offset) — including mid-block and
// phase-predicted blocks — must continue exactly where a sequential
// replay would.
func TestNOC3SeekMatchesSequential(t *testing.T) {
	src := MapReducePhased() // phase structure exercises both predictors
	const perCore = 1100     // 35 blocks of 32: partial tail + several keyframe groups
	tf := parseNOC3(t, writeNOC3Bytes(t, src, 2, perCore, 5, 32))

	for core := 0; core < 2; core++ {
		seq := make([]cpu.Instr, perCore)
		st := tf.StreamFor(core, 1)
		for i := range seq {
			seq[i] = st.Next()
		}
		for _, pos := range []struct{ blk, off int }{
			{0, 0}, {0, 31}, {1, 0}, {7, 5}, {8, 0}, {9, 17}, {15, 31}, {16, 0}, {33, 12}, {34, 0}, {34, 11},
		} {
			r := tf.newReplay(core)
			if err := r.seek(pos.blk, pos.off); err != nil {
				t.Fatalf("core %d seek(%d, %d): %v", core, pos.blk, pos.off, err)
			}
			at := pos.blk*32 + pos.off
			for k := 0; k < 100; k++ {
				want := seq[(at+k)%perCore]
				if got := r.Next(); got != want {
					t.Fatalf("core %d seek(%d, %d) record %d: %+v != %+v", core, pos.blk, pos.off, k, got, want)
				}
			}
		}
	}
}

// periodic is a test workload whose stream repeats with a fixed period,
// the structure the phase predictor exists for.
type periodic struct{ period int }

func (p periodic) Name() string      { return "periodic" }
func (p periodic) Aliases() []string { return nil }
func (p periodic) MaxCores() int     { return 64 }
func (p periodic) CoreParams(coreID int, seed uint64) cpu.Params {
	return cpu.Params{Width: 2, ROB: 32, BaseCPI: 0.7, DepChance: 0.1}
}
func (p periodic) Layout() Layout {
	return Layout{Local: func(int) Region { return Region{} }}
}
func (p periodic) StreamFor(coreID int, seed uint64) cpu.Stream {
	return &periodicStream{period: p.period}
}

type periodicStream struct{ period, i int }

func (s *periodicStream) Next() cpu.Instr {
	// A jumpy address pattern within the period (expensive for the
	// previous-instruction predictor) that repeats exactly across periods
	// (free for the phase predictor).
	k := s.i % s.period
	s.i++
	addr := uint64(k*k*2654435761) % (1 << 30)
	return cpu.Instr{Kind: cpu.KindALU, IAddr: addr}
}

// TestNOC3PhasePredictorWins: when the block length equals the stream's
// period, every non-keyframe block is identical to its predecessor and
// the phase predictor must win — and compress far better than NOC2's
// previous-instruction delta alone.
func TestNOC3PhasePredictorWins(t *testing.T) {
	const blockLen = 256
	data := writeNOC3Bytes(t, periodic{period: blockLen}, 1, blockLen*32, 1, blockLen)
	tf := parseNOC3(t, data)
	if err := tf.Verify(); err != nil {
		t.Fatal(err)
	}
	st := tf.Stats()
	// 32 blocks, keyframes at 0, 8, 16, 24: 28 phase-predicted.
	if st.PredPhase != 28 || st.PredPrev != 4 {
		t.Fatalf("predictor split %d phase / %d prev, want 28 / 4", st.PredPhase, st.PredPrev)
	}

	// The same recording in the canonical NOC2 encoding, for scale.
	cc := coreCapture{meta: tf.cores[0].meta, instrs: make([]cpu.Instr, blockLen*32)}
	replay := tf.StreamFor(0, 1)
	for i := range cc.instrs {
		cc.instrs[i] = replay.Next()
	}
	noc2 := encodeCapture(&capture{hdr: tf.hdr, cores: []coreCapture{cc}})
	if len(data) >= len(noc2) {
		t.Fatalf("NOC3 (%d bytes) did not beat NOC2 (%d bytes) on a periodic stream", len(data), len(noc2))
	}
}

// TestNOC3RecordBoundedMemory is the satellite regression test for the
// recording path: streaming a multi-million-instruction workload to disk
// must allocate O(block), not O(trace).
func TestNOC3RecordBoundedMemory(t *testing.T) {
	const cores, perCore = 2, 1 << 21 // 4.2M instructions ≈ 100MB if materialized
	w := Synth(DataServing)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := WriteNOC3(discardWriter{}, w, cores, perCore, 1, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	// Generous ceiling: block buffers + flate state + per-core stream
	// construction, still 6x under materializing even one core's stream.
	const ceiling = 8 << 20
	if alloc > ceiling {
		t.Fatalf("recording %d instructions allocated %d bytes, ceiling %d", cores*perCore, alloc, ceiling)
	}
}

// discardWriter is io.Discard without the io.ReaderFrom fast path, so
// writes land in the recorder's own code paths.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestNOC3ReplayBoundedMemory is the acceptance criterion: replaying a
// multi-million-instruction NOC3 recording keeps memory O(cores × block)
// — the full stream here is ~100MB decoded, the ceiling is 8MB.
func TestNOC3ReplayBoundedMemory(t *testing.T) {
	const cores, perCore = 2, 1 << 21
	path := filepath.Join(t.TempDir(), "big.noctrace")
	if err := RecordFile(path, Synth(DataServing), cores, perCore, 1); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tf, err := OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	var sink cpu.Instr
	for core := 0; core < cores; core++ {
		st := tf.StreamFor(core, 1)
		for i := 0; i < perCore; i++ {
			sink = st.Next()
		}
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	const ceiling = 8 << 20
	if alloc > ceiling {
		t.Fatalf("replaying %d instructions allocated %d bytes, ceiling %d", cores*perCore, alloc, ceiling)
	}
	_ = sink
}

// corruptBlockPred flips core 0 block blk's predictor byte to pred and
// re-stamps the section CRC, producing a structurally valid file with a
// hostile predictor id.
func corruptBlockPred(t *testing.T, data []byte, tf *TraceFile, blk int, pred byte) []byte {
	t.Helper()
	ref := tf.cores[0].blocks[blk]
	out := append([]byte(nil), data...)
	sect := out[ref.off : ref.off+int64(ref.size)]
	// Walk the section header: kind uvarint, length uvarint, 4-byte CRC,
	// then payload = core uvarint, idx uvarint, pred byte.
	i := 0
	for sect[i]&0x80 != 0 {
		i++
	}
	i++ // kind
	for sect[i]&0x80 != 0 {
		i++
	}
	i++ // length
	crcAt := i
	i += 4
	payload := sect[i:]
	j := 0
	for payload[j]&0x80 != 0 {
		j++
	}
	j++ // core
	for payload[j]&0x80 != 0 {
		j++
	}
	j++ // idx
	payload[j] = pred
	crc := crc32.ChecksumIEEE(payload)
	sect[crcAt] = byte(crc)
	sect[crcAt+1] = byte(crc >> 8)
	sect[crcAt+2] = byte(crc >> 16)
	sect[crcAt+3] = byte(crc >> 24)
	return out
}

// TestNOC3RejectsCorruption drives the reader through the corruption
// classes the fuzz target hunts: truncation everywhere, trailer and
// index damage, bad CRCs, and hostile predictor ids. Parse+Verify must
// error cleanly, never panic, never over-allocate.
func TestNOC3RejectsCorruption(t *testing.T) {
	data := writeNOC3Bytes(t, MapReducePhased(), 2, 600, 3, 32)
	tf := parseNOC3(t, data)
	if err := tf.Verify(); err != nil {
		t.Fatal(err)
	}

	check := func(name string, b []byte) {
		t.Helper()
		bad, err := ParseTraceBytes(b)
		if err == nil {
			err = bad.Verify()
		}
		if err == nil {
			t.Fatalf("%s: corrupt container accepted", name)
		}
	}

	for cut := 0; cut < len(data); cut += 13 {
		check(fmt.Sprintf("truncated at %d", cut), data[:cut])
	}

	bad := append([]byte(nil), data...)
	copy(bad[len(bad)-4:], "NOPE")
	check("trailer magic", bad)

	bad = append([]byte(nil), data...)
	bad[len(bad)-12] ^= 0xff // index offset low byte
	check("index offset", bad)

	// Flip one byte in every 97th position (covers header, blocks, and
	// index payload bytes; CRCs catch what structure checks don't).
	for pos := 4; pos < len(data); pos += 97 {
		bad = append([]byte(nil), data...)
		bad[pos] ^= 0x20
		b, err := ParseTraceBytes(bad)
		if err != nil {
			continue
		}
		// A flip the index/header survived (e.g. inside a block payload)
		// must be caught by the checked decode.
		if err := b.Verify(); err == nil && !bytes.Equal(bad, data) {
			t.Fatalf("byte flip at %d accepted by Parse+Verify", pos)
		}
	}

	// Hostile predictor ids: phase prediction on a keyframe, and an
	// undefined id — both with valid CRCs.
	check("phase predictor on keyframe", corruptBlockPred(t, data, tf, 8, predPhase))
	check("undefined predictor", corruptBlockPred(t, data, tf, 3, 7))
}

// TestNOC3CursorSaveRestore checks the (block, offset) checkpoint cursor:
// a restored stream continues bit-identically, and corrupt cursors are
// rejected as checkpoint corruption, not panics.
func TestNOC3CursorSaveRestore(t *testing.T) {
	tf := parseNOC3(t, writeNOC3Bytes(t, MapReducePhased(), 1, 500, 7, 32))
	st := tf.StreamFor(0, 1).(*blockReplay)
	for i := 0; i < 137; i++ {
		st.Next()
	}
	var e ckpt.Enc
	st.SaveState(&e)

	restored := tf.StreamFor(0, 1).(*blockReplay)
	d := ckpt.NewDec(e.Bytes())
	restored.LoadState(d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if got, want := restored.Next(), st.Next(); got != want {
			t.Fatalf("restored record %d: %+v != %+v", i, got, want)
		}
	}

	for _, bad := range []struct {
		name     string
		blk, off int
	}{
		{"block out of range", 99, 0},
		{"negative block", -1, 0},
		{"offset out of range", 0, 32},
		{"offset past short tail", 15, 31}, // block 15 holds 500-15*32=20
	} {
		var be ckpt.Enc
		be.Int(bad.blk)
		be.Int(bad.off)
		bd := ckpt.NewDec(be.Bytes())
		tf.StreamFor(0, 1).(*blockReplay).LoadState(bd)
		if bd.Err() == nil {
			t.Fatalf("%s: corrupt cursor accepted", bad.name)
		}
	}
}

// TestLoadTraceDispatch: the "trace:" scheme must open both container
// formats as the same TraceFile a direct recording yields.
func TestLoadTraceDispatch(t *testing.T) {
	dir := t.TempDir()
	noc3 := filepath.Join(dir, "mix3.noctrace")
	if err := RecordFile(noc3, ConsolidatedMix(), fixtureCores, fixturePerCore, fixtureSeed); err != nil {
		t.Fatal(err)
	}
	w, err := Parse("trace:" + noc3)
	if err != nil {
		t.Fatal(err)
	}
	direct := w.(*TraceFile)
	defer direct.Close()
	if direct.closer == nil {
		t.Fatal("a NOC3 file must open lazily, not load into memory")
	}

	w, err = Parse("trace:" + noc2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	legacy := w.(*TraceFile)
	if legacy.Name() != direct.Name() || legacy.MaxCores() != direct.MaxCores() || legacy.Fingerprint() != direct.Fingerprint() {
		t.Fatalf("NOC2 file loaded as %q/%d cores, want %q/%d", legacy.Name(), legacy.MaxCores(), direct.Name(), direct.MaxCores())
	}
	for core := 0; core < fixtureCores; core++ {
		a, b := legacy.StreamFor(core, 1), direct.StreamFor(core, 1)
		for i := 0; i < 2*fixturePerCore; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("core %d record %d: NOC2 replay diverged from the NOC3 recording", core, i)
			}
		}
	}
}

// TestTraceRejectsGarbage: LoadTrace fails cleanly on files that are
// missing, empty, of neither format, or truncated in either format.
func TestTraceRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	noc2 := readFixture(t)
	noc3 := writeNOC3Bytes(t, Synth(WebSearch), 2, 100, 1, 16)
	for name, data := range map[string][]byte{
		"empty":          nil,
		"junk":           []byte("neither format"),
		"magic only":     []byte("NOC3"),
		"truncated NOC2": noc2[:len(noc2)/2],
		"truncated NOC3": noc3[:len(noc3)-1],
		"half NOC3":      noc3[:len(noc3)/2],
	} {
		path := filepath.Join(dir, "garbage.noctrace")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTrace(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := LoadTrace(filepath.Join(dir, "missing.noctrace")); err == nil {
		t.Error("missing file: accepted")
	}
}

// TestTracePropertyArbitraryStreams: any synthetic stream, at any length
// and block length, round-trips exactly — including partial last blocks
// and streams shorter than one block.
func TestTracePropertyArbitraryStreams(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint16, blockRaw uint8) bool {
		n := int(nRaw%500) + 1
		blockLen := int(blockRaw%64) + 1
		src := Synth(MapReduceW)
		tf, err := ParseTraceBytes(writeNOC3Bytes(t, src, 2, n, seed, blockLen))
		if err != nil || tf.Verify() != nil {
			return false
		}
		for core := 0; core < 2; core++ {
			st, ref := tf.StreamFor(core, 1), src.StreamFor(core, seed)
			for i := 0; i < n; i++ {
				if st.Next() != ref.Next() {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInspectTrace covers the -trace-info plumbing for both formats.
func TestInspectTrace(t *testing.T) {
	noc3 := filepath.Join(t.TempDir(), "conv.noctrace")
	if err := ConvertFile(noc2Fixture, noc3); err != nil {
		t.Fatal(err)
	}
	i2, err := InspectTrace(noc2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	i3, err := InspectTrace(noc3)
	if err != nil {
		t.Fatal(err)
	}
	if i2.Format != "NOC2" || i3.Format != "NOC3" {
		t.Fatalf("formats %q / %q", i2.Format, i3.Format)
	}
	want := fixtureCores * fixturePerCore
	if i2.Cores != fixtureCores || i3.Cores != fixtureCores || i2.Instrs != int64(want) || i3.Instrs != int64(want) {
		t.Fatalf("geometry: %+v vs %+v", i2, i3)
	}
	if st, err := os.Stat(noc2Fixture); err != nil || i2.FileBytes != st.Size() {
		t.Fatalf("NOC2 file bytes %d, stat %v", i2.FileBytes, err)
	}
	if i2.Fingerprint != i3.Fingerprint || i2.Fingerprint == "" {
		t.Fatalf("fingerprints %q / %q must match across formats", i2.Fingerprint, i3.Fingerprint)
	}
	if i2.Blocks != 0 || i2.BlockLen != 0 || i2.HeaderSectionB != 0 {
		t.Fatalf("NOC2 report carries block fields: %+v", i2)
	}
	if i3.Blocks == 0 || i3.BlockLen != DefaultBlockLen || i3.IndexSectionB == 0 || i3.HeaderSectionB == 0 {
		t.Fatalf("NOC3 section accounting empty: %+v", i3)
	}
	var text bytes.Buffer
	i3.WriteText(&text)
	if !bytes.Contains(text.Bytes(), []byte("NOC3")) {
		t.Fatalf("text report missing format: %s", text.String())
	}
}

// TestNOC3RecordRejectsIdle: open-system streams answer KindIdle, which
// has no record encoding; the recorder must refuse it.
func TestNOC3RecordRejectsIdle(t *testing.T) {
	if err := WriteNOC3(discardWriter{}, idleWorkload{}, 1, 10, 1, 0); err == nil {
		t.Fatal("recording a KindIdle stream must error")
	}
}

type idleWorkload struct{}

func (idleWorkload) Name() string      { return "idle" }
func (idleWorkload) Aliases() []string { return nil }
func (idleWorkload) MaxCores() int     { return 1 }
func (idleWorkload) CoreParams(int, uint64) cpu.Params {
	return cpu.Params{Width: 2, ROB: 32, BaseCPI: 0.7, DepChance: 0.1}
}
func (idleWorkload) Layout() Layout {
	return Layout{Local: func(int) Region { return Region{} }}
}
func (idleWorkload) StreamFor(int, uint64) cpu.Stream {
	return idleStream{}
}

type idleStream struct{}

func (idleStream) Next() cpu.Instr { return cpu.Instr{Kind: cpu.KindIdle} }
