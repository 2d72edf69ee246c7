package workload

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"nocout/internal/cpu"
)

// The NOC3 writer: records a workload (or converts a decoded legacy NOC2
// capture) into the sectioned container, streaming block by block so the
// writer's footprint is O(block) no matter how long the trace is, and
// hashing the canonical NOC2 encoding as it goes so the recording's
// behavioral fingerprint is identical in either format.

// noc3Writer streams one container to w. All buffers are reused across
// blocks and cores.
type noc3Writer struct {
	w        io.Writer
	off      int64 // bytes written so far (section offsets for the index)
	err      error
	blockLen int

	// Per-file accumulation for the index section.
	offsets   []uint64 // each block section's file offset (at its kind byte)
	sizes     []uint64 // each block section's total bytes (header + payload)
	rawBytes  uint64   // uncompressed residual bytes across all blocks
	predCount [2]uint64

	// NOC2 canonical hash, fed in lockstep with the blocks.
	fp hash.Hash

	// Scratch.
	enc     blockEnc
	payload []byte
	hdr     []byte
	comp    bytes.Buffer
	fw      *flate.Writer
}

func (w *noc3Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(b)
	w.off += int64(n)
	w.err = err
}

// section emits one NOCK-style section and returns its file offset and
// total size.
func (w *noc3Writer) section(kind uint64, payload []byte) (off int64, size int) {
	off = w.off
	w.hdr = w.hdr[:0]
	w.hdr = binary.AppendUvarint(w.hdr, kind)
	w.hdr = binary.AppendUvarint(w.hdr, uint64(len(payload)))
	w.hdr = binary.LittleEndian.AppendUint32(w.hdr, crc32.ChecksumIEEE(payload))
	size = len(w.hdr) + len(payload)
	w.write(w.hdr)
	w.write(payload)
	return off, size
}

// begin writes the magic, version, and header section, and primes the
// NOC2 hash with the equivalent NOC2 header.
func (w *noc3Writer) begin(h captureHeader, cores []coreMeta) {
	w.write(noc3Magic[:])
	var v [binary.MaxVarintLen64]byte
	w.write(v[:binary.PutUvarint(v[:], noc3Version)])

	p := w.payload[:0]
	p = appendString(p, h.Source)
	p = binary.AppendUvarint(p, h.Seed)
	p = binary.AppendUvarint(p, uint64(h.ScaleLimit))
	p = appendRegion(p, h.Instr)
	p = appendRegion(p, h.Hot)
	p = binary.AppendUvarint(p, uint64(w.blockLen))
	p = binary.AppendUvarint(p, uint64(len(cores)))
	for _, m := range cores {
		p = appendString(p, m.Member)
		p = binary.AppendUvarint(p, uint64(m.Params.Width))
		p = binary.AppendUvarint(p, uint64(m.Params.ROB))
		p = binary.AppendUvarint(p, f64bits(m.Params.BaseCPI))
		p = binary.AppendUvarint(p, f64bits(m.Params.DepChance))
		p = appendRegion(p, m.Local)
		p = binary.AppendUvarint(p, uint64(m.Total))
	}
	w.payload = p
	w.section(noc3SecHeader, p)

	w.fp = sha256.New()
	n2 := &noc2Enc{w: w.fp}
	n2.header(h, len(cores))
}

// coreBlocks drains total instructions from next into blocks for one
// core, writing each as its own section and feeding the NOC2 hash. The
// iaddr scratch slices rotate between current and previous block.
func (w *noc3Writer) coreBlocks(core int, m coreMeta, next func() (cpu.Instr, error), buf []cpu.Instr, curIA, prevIA []uint64) error {
	if w.err != nil {
		return w.err
	}
	n2 := &noc2Enc{w: w.fp}
	n2.coreHeader(m)
	prevDelta := int64(0)
	havePrev := false
	for idx, done := 0, 0; done < m.Total; idx++ {
		count := min(w.blockLen, m.Total-done)
		block := buf[:count]
		for i := range block {
			in, err := next()
			if err != nil {
				return err
			}
			if in.Kind > cpu.KindStore {
				return fmt.Errorf("workload: core %d record %d has kind %d; only ALU/load/store streams are recordable", core, done+i, in.Kind)
			}
			block[i] = in
			curIA[i] = in.IAddr
			n2.instr(in, &prevDelta)
		}
		done += count

		var prev []uint64
		if havePrev {
			prev = prevIA[:w.blockLen]
		}
		pred, resid := w.enc.encode(idx, block, prev)
		w.predCount[pred]++
		w.rawBytes += uint64(len(resid))

		w.comp.Reset()
		if w.fw == nil {
			w.fw, _ = flate.NewWriter(&w.comp, flate.DefaultCompression)
		} else {
			w.fw.Reset(&w.comp)
		}
		if _, err := w.fw.Write(resid); err != nil {
			return err
		}
		if err := w.fw.Close(); err != nil {
			return err
		}

		p := w.payload[:0]
		p = binary.AppendUvarint(p, uint64(core))
		p = binary.AppendUvarint(p, uint64(idx))
		p = append(p, pred)
		p = binary.AppendUvarint(p, uint64(count))
		p = binary.AppendUvarint(p, uint64(len(resid)))
		p = append(p, w.comp.Bytes()...)
		w.payload = p
		off, size := w.section(noc3SecBlock, p)
		w.offsets = append(w.offsets, uint64(off))
		w.sizes = append(w.sizes, uint64(size))

		curIA, prevIA = prevIA, curIA
		havePrev = true
	}
	if n2.err != nil {
		return n2.err
	}
	return w.err
}

// finish writes the index section and trailer.
func (w *noc3Writer) finish() error {
	if w.err != nil {
		return w.err
	}
	p := w.payload[:0]
	p = w.fp.Sum(p)
	p = binary.AppendUvarint(p, uint64(len(w.offsets)))
	for i := range w.offsets {
		p = binary.AppendUvarint(p, w.offsets[i])
		p = binary.AppendUvarint(p, w.sizes[i])
	}
	p = binary.AppendUvarint(p, w.rawBytes)
	p = binary.AppendUvarint(p, w.predCount[predPrev])
	p = binary.AppendUvarint(p, w.predCount[predPhase])
	w.payload = p
	indexOff, _ := w.section(noc3SecIndex, p)

	var tr [noc3TrailerBytes]byte
	binary.LittleEndian.PutUint64(tr[:8], uint64(indexOff))
	copy(tr[8:], noc3TrailerMagic[:])
	w.write(tr[:])
	return w.err
}

func appendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

func appendRegion(p []byte, r Region) []byte {
	p = binary.AppendUvarint(p, r.Base)
	return binary.AppendUvarint(p, r.Size)
}

func f64bits(v float64) uint64 { return math.Float64bits(v) }

// recordMeta validates w and assembles the header and per-core metadata
// of a recording. It is the recorder's single validator: it refuses
// anything beyond the capture caps, so a recording's canonical NOC2
// encoding (its fingerprint) is always well-formed, and it clamps the
// stored scale limit to the recorded core count — replay can never drive
// more cores than were captured, and an Unlimited-wrapped source would
// otherwise store a limit the decoders reject.
func recordMeta(w Workload, cores, perCore int, seed uint64) (captureHeader, []coreMeta, error) {
	if cores < 1 || cores > maxCaptureCores {
		return captureHeader{}, nil, fmt.Errorf("workload: recording needs 1..%d cores, got %d", maxCaptureCores, cores)
	}
	if perCore < 1 || perCore > maxTrace {
		return captureHeader{}, nil, fmt.Errorf("workload: recording needs 1..%d instructions per core, got %d", maxTrace, perCore)
	}
	if len(w.Name()) > maxCaptureName {
		return captureHeader{}, nil, fmt.Errorf("workload: name %.32q... exceeds the %d-byte capture cap", w.Name(), maxCaptureName)
	}
	lay := w.Layout()
	if lay.Instr.Size > maxCaptureRegion || lay.Hot.Size > maxCaptureRegion {
		return captureHeader{}, nil, fmt.Errorf("workload: shared region exceeds the %d-byte capture cap", maxCaptureRegion)
	}
	limit := w.MaxCores()
	if limit > cores {
		limit = cores
	}
	hdr := captureHeader{Source: w.Name(), Seed: seed, ScaleLimit: limit, Instr: lay.Instr, Hot: lay.Hot}
	metas := make([]coreMeta, cores)
	for i := range metas {
		member, _ := MemberNameOf(w, i)
		if len(member) > maxCaptureName {
			return captureHeader{}, nil, fmt.Errorf("workload: core %d member name %.32q... exceeds the %d-byte capture cap", i, member, maxCaptureName)
		}
		cp := w.CoreParams(i, seed)
		cp.Seed = 0
		local := lay.Local(i)
		if local.Size > maxCaptureRegion {
			return captureHeader{}, nil, fmt.Errorf("workload: core %d local region exceeds the %d-byte capture cap", i, maxCaptureRegion)
		}
		metas[i] = coreMeta{Member: member, Params: cp, Local: local, Total: perCore}
	}
	return hdr, metas, nil
}

// WriteNOC3 records cores×perCore instructions from w at the given seed
// straight into dst as a NOC3 container. Memory stays O(blockLen)
// regardless of perCore: each core's stream is drained block by block and
// every block is compressed and written before the next is read.
// blockLen <= 0 selects DefaultBlockLen.
func WriteNOC3(dst io.Writer, w Workload, cores, perCore int, seed uint64, blockLen int) error {
	hdr, metas, err := recordMeta(w, cores, perCore, seed)
	if err != nil {
		return err
	}
	if blockLen <= 0 {
		blockLen = DefaultBlockLen
	}
	if blockLen > maxBlockLen {
		return fmt.Errorf("workload: block length %d exceeds the %d cap", blockLen, maxBlockLen)
	}
	nw := &noc3Writer{w: dst, blockLen: blockLen}
	nw.begin(hdr, metas)
	buf := make([]cpu.Instr, blockLen)
	curIA := make([]uint64, blockLen)
	prevIA := make([]uint64, blockLen)
	for i, m := range metas {
		st := w.StreamFor(i, seed)
		next := func() (cpu.Instr, error) { return st.Next(), nil }
		if err := nw.coreBlocks(i, m, next, buf, curIA, prevIA); err != nil {
			return err
		}
	}
	return nw.finish()
}

// RecordFile records cores×perCore instructions from w at the given seed
// into a NOC3 trace file at path — the bounded-memory recording path the
// CLI's -record-trace uses. Replay it anywhere a workload name is
// accepted via "trace:<path>".
func RecordFile(path string, w Workload, cores, perCore int, seed uint64) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := WriteNOC3(bw, w, cores, perCore, seed, 0); err != nil {
		return err
	}
	return bw.Flush()
}

// convertNOC3 re-encodes a decoded NOC2 capture as a NOC3 container. The
// result is byte-identical to a direct recording of the same streams, so
// it replays bit-identically and fingerprints identically. c comes from
// readCapture, which enforces every cap the recorder does.
func convertNOC3(dst io.Writer, c *capture, blockLen int) error {
	if blockLen <= 0 {
		blockLen = DefaultBlockLen
	}
	if blockLen > maxBlockLen {
		return fmt.Errorf("workload: block length %d exceeds the %d cap", blockLen, maxBlockLen)
	}
	nw := &noc3Writer{w: dst, blockLen: blockLen}
	metas := make([]coreMeta, len(c.cores))
	for i := range c.cores {
		metas[i] = c.cores[i].meta
	}
	nw.begin(c.hdr, metas)
	buf := make([]cpu.Instr, blockLen)
	curIA := make([]uint64, blockLen)
	prevIA := make([]uint64, blockLen)
	for i, m := range metas {
		instrs, k := c.cores[i].instrs, 0
		next := func() (cpu.Instr, error) { in := instrs[k]; k++; return in, nil }
		if err := nw.coreBlocks(i, m, next, buf, curIA, prevIA); err != nil {
			return err
		}
	}
	return nw.finish()
}

// ConvertFile upgrades a NOC2 capture file to a NOC3 trace file.
func ConvertFile(in, out string) (err error) {
	c, err := loadCapture(in)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := convertNOC3(bw, c, 0); err != nil {
		return err
	}
	return bw.Flush()
}
