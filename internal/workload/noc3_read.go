package workload

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"nocout/internal/cpu"
)

// The NOC3 reader: a TraceFile indexes a container's sections once, then
// replays each core's stream by decoding one block at a time through
// reusable buffers — replay memory is O(cores × blockLen) for any trace
// length, and a (block, offset) cursor seek decodes at most keyframeEvery
// blocks. The structural layer (magic, trailer, section headers, index,
// header metadata, block geometry) is fully validated at open; block
// payloads are CRC-checked and decoded lazily as replay reaches them, and
// Verify walks every payload with the same checked decoder for callers
// that want whole-file integrity up front.

// Reader-side caps beyond the shared capture caps.
const (
	maxHeaderSectionBytes = 1 << 23 // source + 4096 cores of metadata fits easily
	maxIndexSectionBytes  = 1 << 26 // ~3M block entries
)

// blockRef locates one block section in the file.
type blockRef struct {
	off  int64
	size int // total section bytes: kind + length + crc + payload
}

// traceCore is one core's identity and block map.
type traceCore struct {
	meta   coreMeta
	blocks []blockRef
}

// TraceStats aggregates the index section's compression accounting.
type TraceStats struct {
	Blocks            int    // block sections in the file
	PredPrev          uint64 // blocks encoded with the previous-instruction predictor
	PredPhase         uint64 // blocks encoded with the same-offset-in-previous-block predictor
	RawResidualBytes  uint64 // residual bytes before deflate
	BlockSectionBytes uint64 // on-disk block section bytes (headers + compressed payloads)
}

// TraceFile is an opened NOC3 container: a Workload (and MemberMapper)
// whose streams decode blocks on demand instead of materializing the
// recording. It is safe for concurrent use — StreamFor hands out
// independent cursors over the shared (concurrency-safe) io.ReaderAt —
// and holds the underlying file open for its lifetime; Close releases it.
type TraceFile struct {
	path   string
	r      io.ReaderAt
	size   int64
	closer io.Closer

	hdr      captureHeader
	blockLen int
	cores    []traceCore
	fp       [sha256.Size]byte
	stats    TraceStats
	headerSz int // header section bytes, for Inspect
	indexSz  int // index section bytes, for Inspect
}

// OpenTraceFile opens and indexes a NOC3 trace file. The file handle
// stays open for lazy block reads; Close it when the workload is done
// (the "trace:<path>" scheme keeps it open for the process lifetime,
// like any other resolved workload).
func OpenTraceFile(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("workload: trace %s: %w", path, err)
	}
	t, err := newTraceFile(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("workload: trace %s: %w", path, err)
	}
	t.path = path
	t.closer = f
	return t, nil
}

// ParseTraceBytes indexes an in-memory NOC3 container (the fuzz entry
// point, and how LoadTrace opens a converted NOC2 capture).
func ParseTraceBytes(data []byte) (*TraceFile, error) {
	return newTraceFile(bytes.NewReader(data), int64(len(data)))
}

// Close releases the underlying file, if any. Streams handed out by
// StreamFor must not be used afterwards.
func (t *TraceFile) Close() error {
	if t.closer == nil {
		return nil
	}
	return t.closer.Close()
}

// errNotNOC3 marks inputs without the NOC3 magic.
var errNotNOC3 = errors.New("not a NOC3 trace")

// LoadTrace opens a trace file — it is how the "trace:<path>" workload
// scheme resolves. NOC3 files open as a lazy TraceFile (O(block) replay
// memory). A legacy NOC2 file is decoded whole and converted in memory to
// the NOC3 container a direct recording of the same streams produces,
// byte for byte, so it replays, fingerprints and checkpoints exactly like
// that recording.
func LoadTrace(path string) (*TraceFile, error) {
	magic, err := fileMagic(path)
	if err != nil {
		return nil, err
	}
	if magic == noc3Magic {
		return OpenTraceFile(path)
	}
	if magic != captureMagic {
		return nil, fmt.Errorf("workload: %s is not a NOC3 trace or NOC2 capture (record one with nocout -record-trace)", path)
	}
	c, err := loadCapture(path)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := convertNOC3(&buf, c, 0); err != nil {
		return nil, fmt.Errorf("workload: capture %s: %w", path, err)
	}
	t, err := ParseTraceBytes(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("workload: capture %s: %w", path, err)
	}
	t.path = path
	return t, nil
}

// fileMagic returns the first four bytes of the file at path; a shorter
// file leaves the tail zero.
func fileMagic(path string) (magic [4]byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return magic, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	io.ReadFull(f, magic[:])
	return magic, nil
}

// newTraceFile parses and validates the container structure: trailer,
// index section, header section, and the block geometry they describe.
// Block payloads are not read here.
func newTraceFile(r io.ReaderAt, size int64) (*TraceFile, error) {
	var head [4 + binary.MaxVarintLen64]byte
	if size < int64(4+1+noc3TrailerBytes) {
		// Still distinguish "not NOC3" from "truncated NOC3".
		if size >= 4 {
			if _, err := r.ReadAt(head[:4], 0); err == nil && [4]byte(head[:4]) != noc3Magic {
				return nil, errNotNOC3
			}
		}
		return nil, errors.New("truncated container")
	}
	n := len(head)
	if int64(n) > size {
		n = int(size)
	}
	if _, err := r.ReadAt(head[:n], 0); err != nil {
		return nil, err
	}
	if [4]byte(head[:4]) != noc3Magic {
		return nil, errNotNOC3
	}
	ver, vn := binary.Uvarint(head[4:n])
	if vn <= 0 {
		return nil, errors.New("truncated version")
	}
	if ver != noc3Version {
		return nil, fmt.Errorf("unsupported NOC3 version %d (want %d)", ver, noc3Version)
	}
	sectionsStart := int64(4 + vn)

	var tr [noc3TrailerBytes]byte
	if _, err := r.ReadAt(tr[:], size-noc3TrailerBytes); err != nil {
		return nil, fmt.Errorf("reading trailer: %w", err)
	}
	if [4]byte(tr[8:]) != noc3TrailerMagic {
		return nil, errors.New("missing trailer magic (truncated or not a finished NOC3 trace)")
	}
	indexOff := int64(binary.LittleEndian.Uint64(tr[:8]))
	if indexOff < sectionsStart || indexOff >= size-noc3TrailerBytes {
		return nil, fmt.Errorf("index offset %d outside sections [%d, %d)", indexOff, sectionsStart, size-noc3TrailerBytes)
	}
	indexSpan := size - noc3TrailerBytes - indexOff
	if indexSpan > maxIndexSectionBytes {
		return nil, fmt.Errorf("index section of %d bytes exceeds the %d cap", indexSpan, maxIndexSectionBytes)
	}

	t := &TraceFile{r: r, size: size, indexSz: int(indexSpan)}
	idx, err := readSectionSpan(r, indexOff, int(indexSpan), noc3SecIndex)
	if err != nil {
		return nil, fmt.Errorf("index section: %w", err)
	}
	refs, err := t.parseIndex(idx)
	if err != nil {
		return nil, fmt.Errorf("index section: %w", err)
	}
	if len(refs) == 0 {
		return nil, errors.New("index lists no blocks")
	}

	headerSpan := refs[0].off - sectionsStart
	if headerSpan <= 0 || headerSpan > maxHeaderSectionBytes {
		return nil, fmt.Errorf("header section of %d bytes (cap %d)", headerSpan, maxHeaderSectionBytes)
	}
	t.headerSz = int(headerSpan)
	hp, err := readSectionSpan(r, sectionsStart, int(headerSpan), noc3SecHeader)
	if err != nil {
		return nil, fmt.Errorf("header section: %w", err)
	}
	if err := t.parseHeader(hp); err != nil {
		return nil, fmt.Errorf("header section: %w", err)
	}

	// Distribute the index's refs over the cores and cross-validate the
	// geometry: counts, bounds, ordering.
	want := 0
	for i := range t.cores {
		want += len(t.cores[i].blocks)
	}
	if want != len(refs) {
		return nil, fmt.Errorf("index lists %d blocks, header geometry needs %d", len(refs), want)
	}
	prevEnd := sectionsStart + headerSpan
	k := 0
	for i := range t.cores {
		for b := range t.cores[i].blocks {
			ref := refs[k]
			k++
			if ref.size < 7 || ref.size > maxBlockSectionBytes {
				return nil, fmt.Errorf("core %d block %d section size %d out of range", i, b, ref.size)
			}
			if ref.off < prevEnd || ref.off+int64(ref.size) > indexOff {
				return nil, fmt.Errorf("core %d block %d section [%d, %d) overlaps or escapes [%d, %d)",
					i, b, ref.off, ref.off+int64(ref.size), prevEnd, indexOff)
			}
			prevEnd = ref.off + int64(ref.size)
			t.cores[i].blocks[b] = ref
		}
	}
	t.stats.Blocks = len(refs)
	return t, nil
}

// readSectionSpan reads a span known to hold exactly one section of the
// given kind, verifies its CRC, and returns the payload.
func readSectionSpan(r io.ReaderAt, off int64, span int, wantKind uint64) ([]byte, error) {
	buf := make([]byte, span)
	if _, err := r.ReadAt(buf, off); err != nil {
		return nil, err
	}
	payload, kind, err := parseSection(buf)
	if err != nil {
		return nil, err
	}
	if kind != wantKind {
		return nil, fmt.Errorf("section kind %d, want %d", kind, wantKind)
	}
	return payload, nil
}

// parseSection decodes one complete section from buf (which must contain
// exactly the section, no more) and CRC-verifies the payload.
func parseSection(buf []byte) (payload []byte, kind uint64, err error) {
	kind, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, errors.New("truncated section kind")
	}
	off := n
	length, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return nil, 0, errors.New("truncated section length")
	}
	off += n
	if len(buf)-off < 4 {
		return nil, 0, errors.New("truncated section CRC")
	}
	crc := binary.LittleEndian.Uint32(buf[off:])
	off += 4
	if length != uint64(len(buf)-off) {
		return nil, 0, fmt.Errorf("section claims %d payload bytes, span has %d", length, len(buf)-off)
	}
	payload = buf[off:]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, 0, fmt.Errorf("section CRC mismatch: stored %08x, computed %08x", crc, got)
	}
	return payload, kind, nil
}

// parseIndex decodes the index payload: fingerprint, block refs, and the
// compression accounting.
func (t *TraceFile) parseIndex(p []byte) ([]blockRef, error) {
	if len(p) < sha256.Size {
		return nil, errors.New("truncated fingerprint")
	}
	copy(t.fp[:], p)
	d := varReader{b: p[sha256.Size:]}
	nblocks := d.u64("block count")
	if nblocks > uint64(len(d.b))/2+1 {
		return nil, fmt.Errorf("block count %d exceeds what %d bytes can index", nblocks, len(d.b))
	}
	refs := make([]blockRef, nblocks)
	for i := range refs {
		off := d.u64("block offset")
		size := d.u64("block size")
		if d.err != nil {
			return nil, d.err
		}
		if off > uint64(t.size) || size > maxBlockSectionBytes {
			return nil, fmt.Errorf("block %d entry (%d, %d) out of range", i, off, size)
		}
		refs[i] = blockRef{off: int64(off), size: int(size)}
	}
	t.stats.RawResidualBytes = d.u64("raw bytes")
	t.stats.PredPrev = d.u64("predictor-0 count")
	t.stats.PredPhase = d.u64("predictor-1 count")
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%d trailing index bytes", len(d.b))
	}
	if t.stats.PredPrev+t.stats.PredPhase != nblocks {
		return nil, fmt.Errorf("predictor counts %d+%d disagree with %d blocks", t.stats.PredPrev, t.stats.PredPhase, nblocks)
	}
	for _, r := range refs {
		t.stats.BlockSectionBytes += uint64(r.size)
	}
	return refs, nil
}

// parseHeader decodes the header payload into the capture identity and
// per-core geometry (block refs sized but not yet located).
func (t *TraceFile) parseHeader(p []byte) error {
	d := varReader{b: p}
	t.hdr.Source = d.str("source name", maxCaptureName)
	t.hdr.Seed = d.u64("seed")
	limit := d.u64("scale limit")
	t.hdr.Instr = d.region("instr region")
	t.hdr.Hot = d.region("hot region")
	blockLen := d.u64("block length")
	nCores := d.u64("core count")
	if d.err != nil {
		return d.err
	}
	if limit > maxCaptureCores {
		return fmt.Errorf("scale limit %d exceeds cap", limit)
	}
	t.hdr.ScaleLimit = int(limit)
	if blockLen < 1 || blockLen > maxBlockLen {
		return fmt.Errorf("block length %d outside 1..%d", blockLen, maxBlockLen)
	}
	t.blockLen = int(blockLen)
	if nCores < 1 || nCores > maxCaptureCores {
		return fmt.Errorf("core count %d outside 1..%d", nCores, maxCaptureCores)
	}
	t.cores = make([]traceCore, nCores)
	for i := range t.cores {
		m := &t.cores[i].meta
		m.Member = d.str(fmt.Sprintf("core %d member", i), maxCaptureName)
		m.Params.Width = int(d.u64(fmt.Sprintf("core %d width", i)))
		m.Params.ROB = int(d.u64(fmt.Sprintf("core %d rob", i)))
		m.Params.BaseCPI = f64frombits(d.u64(fmt.Sprintf("core %d base cpi", i)))
		m.Params.DepChance = f64frombits(d.u64(fmt.Sprintf("core %d dep chance", i)))
		m.Local = d.region(fmt.Sprintf("core %d local region", i))
		total := d.u64(fmt.Sprintf("core %d stream length", i))
		if d.err != nil {
			return d.err
		}
		if err := validCoreParams(i, m.Params); err != nil {
			return err
		}
		if total < 1 || total > maxTrace {
			return fmt.Errorf("core %d stream length %d outside 1..%d", i, total, maxTrace)
		}
		m.Total = int(total)
		t.cores[i].blocks = make([]blockRef, (m.Total+t.blockLen-1)/t.blockLen)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%d trailing header bytes", len(d.b))
	}
	return nil
}

// varReader is a tiny sticky-error varint cursor for section payloads.
type varReader struct {
	b   []byte
	err error
}

func (d *varReader) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("truncated or malformed %s", what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *varReader) str(what string, maxLen uint64) string {
	n := d.u64(what + " length")
	if d.err != nil {
		return ""
	}
	if n > maxLen {
		d.err = fmt.Errorf("%s length %d exceeds cap", what, n)
		return ""
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("truncated %s", what)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *varReader) region(what string) Region {
	base := d.u64(what + " base")
	size := d.u64(what + " size")
	if d.err == nil && size > maxCaptureRegion {
		d.err = fmt.Errorf("%s size %d exceeds cap", what, size)
	}
	return Region{Base: base, Size: size}
}

// --- block geometry ---------------------------------------------------------

// countOf returns the instruction count of core c's block b.
func (t *TraceFile) countOf(c, b int) int {
	tc := &t.cores[c]
	if b == len(tc.blocks)-1 {
		return tc.meta.Total - b*t.blockLen
	}
	return t.blockLen
}

// loadBlock reads, CRC-checks, decompresses, and decodes core c's block b
// into instrs/ia (each sized countOf(c, b)); prevIA must hold block b-1's
// addresses when b's predictor is predPhase. sect/resid are reusable
// scratch; fr is a reusable flate reader (created on first use). Every
// failure is a clean error.
func (t *TraceFile) loadBlock(c, b int, prevIA []uint64, sect, resid *[]byte, instrs []cpu.Instr, ia []uint64, fr *io.ReadCloser) error {
	ref := t.cores[c].blocks[b]
	if cap(*sect) < ref.size {
		*sect = make([]byte, ref.size)
	}
	buf := (*sect)[:ref.size]
	if _, err := t.r.ReadAt(buf, ref.off); err != nil {
		return fmt.Errorf("reading block section: %w", err)
	}
	payload, kind, err := parseSection(buf)
	if err != nil {
		return err
	}
	if kind != noc3SecBlock {
		return fmt.Errorf("section kind %d, want %d", kind, noc3SecBlock)
	}
	d := varReader{b: payload}
	core := d.u64("block core")
	idx := d.u64("block index")
	if d.err == nil && len(d.b) == 0 {
		d.err = errors.New("truncated block predictor")
	}
	if d.err != nil {
		return d.err
	}
	pred := d.b[0]
	d.b = d.b[1:]
	count := d.u64("block record count")
	rawLen := d.u64("block residual length")
	if d.err != nil {
		return d.err
	}
	if core != uint64(c) || idx != uint64(b) {
		return fmt.Errorf("block identifies as core %d block %d, indexed as core %d block %d", core, idx, c, b)
	}
	if count != uint64(len(instrs)) {
		return fmt.Errorf("block holds %d records, geometry needs %d", count, len(instrs))
	}
	switch pred {
	case predPrev:
	case predPhase:
		if b%keyframeEvery == 0 {
			return fmt.Errorf("keyframe block %d uses the phase predictor", b)
		}
	default:
		return fmt.Errorf("invalid predictor %d", pred)
	}
	if rawLen > uint64(blockResidCap(len(instrs))) {
		return fmt.Errorf("residual length %d exceeds the %d cap for %d records", rawLen, blockResidCap(len(instrs)), len(instrs))
	}
	if cap(*resid) < int(rawLen) {
		*resid = make([]byte, rawLen)
	}
	rb := (*resid)[:rawLen]
	if *fr == nil {
		*fr = flate.NewReader(bytes.NewReader(d.b))
	} else if err := (*fr).(flate.Resetter).Reset(bytes.NewReader(d.b), nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(*fr, rb); err != nil {
		return fmt.Errorf("decompressing %d residual bytes: %w", rawLen, err)
	}
	var one [1]byte
	if n, err := (*fr).Read(one[:]); n != 0 || (err != nil && err != io.EOF) {
		return errors.New("compressed residuals longer than declared")
	}
	if err := decodeBlockResiduals(rb, pred, prevIA, instrs, ia); err != nil {
		return err
	}
	return nil
}

// Verify decodes every block of every core with the checked decoder —
// full-file integrity (CRCs, geometry, predictors, residuals) in
// O(block) memory.
func (t *TraceFile) Verify() error {
	for c := range t.cores {
		r := t.newReplay(c)
		for b := range t.cores[c].blocks {
			var prev []uint64
			if b > 0 {
				prev = r.curIA[:t.countOf(c, b-1)]
			}
			if err := r.decodeInto(b, prev); err != nil {
				return fmt.Errorf("workload: trace %s core %d block %d: %w", t.path, c, b, err)
			}
		}
	}
	return nil
}

// --- Workload implementation ------------------------------------------------

// core maps a chip core to a recorded one; chips wider than the
// recording reuse streams modulo the recorded count (only reachable when
// the scalability clamp is lifted).
func (t *TraceFile) core(coreID int) *traceCore { return &t.cores[coreID%len(t.cores)] }

// Name implements Workload; a trace replays under its source's name.
func (t *TraceFile) Name() string { return t.hdr.Source }

// Aliases implements Workload; traces are addressed as "trace:<path>".
func (t *TraceFile) Aliases() []string { return nil }

// MaxCores implements Workload: the recorded software limit, clamped to
// the recorded core count.
func (t *TraceFile) MaxCores() int {
	limit := t.hdr.ScaleLimit
	if limit <= 0 || limit > len(t.cores) {
		limit = len(t.cores)
	}
	return limit
}

// CoreParams implements Workload with the recorded pipeline knobs.
func (t *TraceFile) CoreParams(coreID int, seed uint64) cpu.Params {
	cp := t.core(coreID).meta.Params
	cp.Seed = seed
	return cp
}

// MemberName implements MemberMapper with the recorded attribution.
func (t *TraceFile) MemberName(coreID int) string { return t.core(coreID).meta.Member }

// Layout implements Workload with the recorded regions.
func (t *TraceFile) Layout() Layout {
	return Layout{
		Instr: t.hdr.Instr,
		Hot:   t.hdr.Hot,
		Local: func(core int) Region { return t.core(core).meta.Local },
	}
}

// StreamFor implements Workload: an independent O(block) replay cursor.
// The seed does not alter a replay — the trace is the trace.
func (t *TraceFile) StreamFor(coreID int, seed uint64) cpu.Stream {
	return t.newReplay(coreID % len(t.cores))
}

// Seed returns the seed the recording was made at (provenance).
func (t *TraceFile) Seed() uint64 { return t.hdr.Seed }

// Fingerprint returns the recording's behavioral fingerprint: the
// SHA-256 of its canonical NOC2 encoding, as stored at record time.
func (t *TraceFile) Fingerprint() [sha256.Size]byte { return t.fp }

// Stats returns the index's compression accounting.
func (t *TraceFile) Stats() TraceStats { return t.stats }

// BlockLen returns the instructions-per-block geometry.
func (t *TraceFile) BlockLen() int { return t.blockLen }

// --- replay stream ----------------------------------------------------------

// blockReplay is one core's lazy replay cursor: the current block decoded
// in reusable buffers plus the previous block's addresses (the phase
// predictor's reference). It loops at the end of the recording like every
// trace stream, and serializes its checkpoint cursor as a
// (block, offset) pair.
type blockReplay struct {
	t    *TraceFile
	core int

	blk, off int  // cursor: the next instruction is cur[off] of block blk
	loaded   bool // cur/curIA hold block blk

	cur             []cpu.Instr // decoded current block (view into instrBuf)
	curIA, nextIA   []uint64    // double-buffered reconstructed addresses
	instrBuf        []cpu.Instr
	sectBuf, residB []byte
	fr              io.ReadCloser
}

func (t *TraceFile) newReplay(core int) *blockReplay {
	return &blockReplay{
		t:        t,
		core:     core,
		instrBuf: make([]cpu.Instr, t.blockLen),
		curIA:    make([]uint64, t.blockLen),
		nextIA:   make([]uint64, t.blockLen),
	}
}

// decodeInto loads block b (with prev as the predecessor's addresses,
// required when b is phase-predicted) into the cursor's buffers and makes
// it current.
func (r *blockReplay) decodeInto(b int, prev []uint64) error {
	count := r.t.countOf(r.core, b)
	if err := r.t.loadBlock(r.core, b, prev, &r.sectBuf, &r.residB, r.instrBuf[:count], r.nextIA[:count], &r.fr); err != nil {
		return err
	}
	r.curIA, r.nextIA = r.nextIA, r.curIA
	r.cur = r.instrBuf[:count]
	return nil
}

// seek positions the cursor at (blk, off), decoding forward from blk's
// keyframe — at most keyframeEvery block decodes.
func (r *blockReplay) seek(blk, off int) error {
	key := blk - blk%keyframeEvery
	if err := r.decodeInto(key, nil); err != nil {
		return err
	}
	for b := key + 1; b <= blk; b++ {
		if err := r.decodeInto(b, r.curIA[:r.t.countOf(r.core, b-1)]); err != nil {
			return err
		}
	}
	r.blk, r.off, r.loaded = blk, off, true
	return nil
}

// advance moves to the next block (wrapping at the end of the recording)
// with the current block as the phase reference.
func (r *blockReplay) advance() error {
	nb := r.blk + 1
	if nb == len(r.t.cores[r.core].blocks) {
		nb = 0
	}
	r.blk, r.off = nb, 0
	if nb == 0 {
		// Wrapping re-enters the stream at its first keyframe; a
		// single-block recording just rewinds in place.
		if len(r.t.cores[r.core].blocks) == 1 {
			return nil
		}
		return r.decodeInto(0, nil)
	}
	return r.decodeInto(nb, r.curIA[:len(r.cur)])
}

// Next implements cpu.Stream. Decode failures here mean the file changed
// or failed underneath an already-validated index — unrecoverable
// mid-simulation, so they panic with full context (use Verify for an
// error-returning whole-file check).
func (r *blockReplay) Next() cpu.Instr {
	if !r.loaded {
		if err := r.seek(r.blk, r.off); err != nil {
			panic(fmt.Sprintf("workload: trace %s core %d block %d: %v", r.t.path, r.core, r.blk, err))
		}
	}
	in := r.cur[r.off]
	r.off++
	if r.off == len(r.cur) {
		if err := r.advance(); err != nil {
			panic(fmt.Sprintf("workload: trace %s core %d block %d: %v", r.t.path, r.core, r.blk, err))
		}
	}
	return in
}

func f64frombits(v uint64) float64 { return math.Float64frombits(v) }
