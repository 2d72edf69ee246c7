package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"nocout/internal/cpu"
)

// This file is the legacy NOC2 capture decoder. NOC2 was the first
// whole-chip recording format: one monolithic varint blob holding every
// core's stream. Nothing writes it any more — NOC3 (noc3.go) is the only
// recorder — but old files still replay: LoadTrace decodes a NOC2 file
// with readCapture and converts it in memory to the NOC3 container a
// direct recording of the same streams produces, byte for byte, so the
// file replays, fingerprints and checkpoints exactly like that recording.
// The NOC2 encoding itself lives on in noc2Enc as the fingerprint's
// canonical form.
//
// Format: the "NOC2" magic, a header (source name, recording seed,
// software scalability limit, shared instruction/hot regions), then one
// block per core: member name, pipeline parameters, local region, and
// the instruction records (kind uvarint, iaddr varint delta, daddr
// uvarint for loads/stores; the delta baseline resets per core).

// captureMagic identifies the NOC2 capture format.
var captureMagic = [4]byte{'N', 'O', 'C', '2'}

// Defensive decode caps: corrupt headers must produce clean errors, not
// multi-gigabyte allocations. The NOC3 recorder enforces the same caps,
// so every recording converts between the two encodings.
const (
	maxCaptureCores  = 1 << 12 // 4096 recorded cores
	maxCaptureName   = 1 << 10 // name/member strings
	maxCaptureRegion = 1 << 31 // 2GB per prewarm region (builtins are MBs)
	maxTrace         = 1 << 28 // 256M instructions per core stream
)

// capture is a decoded NOC2 file: the header, then each core's identity
// and recorded stream.
type capture struct {
	hdr   captureHeader
	cores []coreCapture
}

// coreCapture is one core's recorded identity and stream.
type coreCapture struct {
	meta   coreMeta
	instrs []cpu.Instr
}

// captureHeader is the NOC2 header before the per-core blocks; the NOC3
// container carries the identical fields.
type captureHeader struct {
	Source     string
	Seed       uint64
	ScaleLimit int
	Instr, Hot Region
}

// coreMeta is one core's identity in a capture header: everything but
// the instruction records themselves.
type coreMeta struct {
	Member string
	Params cpu.Params
	Local  Region
	Total  int // recorded dynamic instructions
}

// noc2Enc emits the canonical NOC2 byte stream with a sticky error. The
// NOC3 recorder streams it into a SHA-256, so a recording's fingerprint
// is the hash of its canonical NOC2 encoding without ever materializing
// that encoding — a NOC2 file's own SHA-256 is its fingerprint.
type noc2Enc struct {
	w   io.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *noc2Enc) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *noc2Enc) putU(v uint64) {
	k := binary.PutUvarint(e.buf[:], v)
	e.write(e.buf[:k])
}

func (e *noc2Enc) putI(v int64) {
	k := binary.PutVarint(e.buf[:], v)
	e.write(e.buf[:k])
}

func (e *noc2Enc) putS(s string) {
	e.putU(uint64(len(s)))
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

func (e *noc2Enc) putRegion(r Region) {
	e.putU(r.Base)
	e.putU(r.Size)
}

// header emits the magic and the shared header fields.
func (e *noc2Enc) header(h captureHeader, cores int) {
	e.write(captureMagic[:])
	e.putS(h.Source)
	e.putU(h.Seed)
	e.putU(uint64(h.ScaleLimit))
	e.putRegion(h.Instr)
	e.putRegion(h.Hot)
	e.putU(uint64(cores))
}

// coreHeader emits one core's identity block (member, params, local
// region, stream length); the caller follows with Total instr records.
func (e *noc2Enc) coreHeader(m coreMeta) {
	e.putS(m.Member)
	e.putU(uint64(m.Params.Width))
	e.putU(uint64(m.Params.ROB))
	e.putU(math.Float64bits(m.Params.BaseCPI))
	e.putU(math.Float64bits(m.Params.DepChance))
	e.putRegion(m.Local)
	e.putU(uint64(m.Total))
}

// instr emits one record, threading the per-core delta
// baseline through prev.
func (e *noc2Enc) instr(in cpu.Instr, prev *int64) {
	e.putU(uint64(in.Kind))
	e.putI(int64(in.IAddr) - *prev)
	*prev = int64(in.IAddr)
	if in.Kind != cpu.KindALU {
		e.putU(in.DAddr)
	}
}

// readCapture decodes a NOC2 capture. Corrupt or truncated inputs
// produce errors, never panics or unbounded allocations, and the decoded
// pipeline parameters are validated so a replayed chip cannot be built
// from garbage. Every cap is enforced here, so whatever decodes also
// converts: the core count (1..maxCaptureCores), the scale limit, the
// name lengths, the region sizes, and the stream lengths (1..maxTrace).
func readCapture(r io.Reader) (*capture, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("workload: reading capture header: %w", err)
	}
	if magic != captureMagic {
		return nil, errors.New("workload: not a NOC2 capture")
	}
	getU := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("workload: capture %s: %w", what, err)
		}
		return v, nil
	}
	getS := func(what string) (string, error) {
		n, err := getU(what + " length")
		if err != nil {
			return "", err
		}
		if n > maxCaptureName {
			return "", fmt.Errorf("workload: capture %s length %d exceeds cap", what, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", fmt.Errorf("workload: capture %s: %w", what, err)
		}
		return string(b), nil
	}
	getRegion := func(what string) (Region, error) {
		base, err := getU(what + " base")
		if err != nil {
			return Region{}, err
		}
		size, err := getU(what + " size")
		if err != nil {
			return Region{}, err
		}
		// An absurd decoded size would hang the chip's line-by-line
		// prewarm, not fail cleanly — reject it here.
		if size > maxCaptureRegion {
			return Region{}, fmt.Errorf("workload: capture %s size %d exceeds cap", what, size)
		}
		return Region{Base: base, Size: size}, nil
	}

	c := &capture{}
	var err error
	if c.hdr.Source, err = getS("source name"); err != nil {
		return nil, err
	}
	if c.hdr.Seed, err = getU("seed"); err != nil {
		return nil, err
	}
	limit, err := getU("scale limit")
	if err != nil {
		return nil, err
	}
	if limit > maxCaptureCores {
		return nil, fmt.Errorf("workload: capture scale limit %d exceeds cap", limit)
	}
	c.hdr.ScaleLimit = int(limit)
	if c.hdr.Instr, err = getRegion("instr region"); err != nil {
		return nil, err
	}
	if c.hdr.Hot, err = getRegion("hot region"); err != nil {
		return nil, err
	}
	nCores, err := getU("core count")
	if err != nil {
		return nil, err
	}
	if nCores == 0 {
		return nil, errors.New("workload: capture has no cores")
	}
	if nCores > maxCaptureCores {
		return nil, fmt.Errorf("workload: capture core count %d exceeds cap", nCores)
	}
	c.cores = make([]coreCapture, nCores)
	for i := range c.cores {
		m := &c.cores[i].meta
		if m.Member, err = getS(fmt.Sprintf("core %d member", i)); err != nil {
			return nil, err
		}
		var raw [4]uint64
		for k, what := range []string{"width", "rob", "base cpi", "dep chance"} {
			if raw[k], err = getU(fmt.Sprintf("core %d %s", i, what)); err != nil {
				return nil, err
			}
		}
		m.Params = cpu.Params{
			Width: int(raw[0]), ROB: int(raw[1]),
			BaseCPI: math.Float64frombits(raw[2]), DepChance: math.Float64frombits(raw[3]),
		}
		if err := validCoreParams(i, m.Params); err != nil {
			return nil, err
		}
		if m.Local, err = getRegion(fmt.Sprintf("core %d local region", i)); err != nil {
			return nil, err
		}
		n, err := getU(fmt.Sprintf("core %d stream length", i))
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("workload: core %d has an empty stream", i)
		}
		if n > maxTrace {
			return nil, fmt.Errorf("workload: core %d stream length %d exceeds cap", i, n)
		}
		m.Total = int(n)
		if c.cores[i].instrs, err = readRecords(br, n); err != nil {
			return nil, fmt.Errorf("workload: core %d: %w", i, err)
		}
	}
	return c, nil
}

// readRecords decodes n instruction records (kind uvarint, iaddr varint
// delta, daddr uvarint for loads/stores). The slice grows as records
// arrive — a corrupt header claiming a huge n cannot force a huge
// allocation; it fails at the first missing record instead.
func readRecords(br *bufio.Reader, n uint64) ([]cpu.Instr, error) {
	instrs := make([]cpu.Instr, 0, min(n, 1<<16))
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		kind, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("record %d kind: %w", i, err)
		}
		if kind > uint64(cpu.KindStore) {
			return nil, fmt.Errorf("record %d has invalid kind %d", i, kind)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("record %d iaddr: %w", i, err)
		}
		prev += delta
		in := cpu.Instr{Kind: cpu.InstrKind(kind), IAddr: uint64(prev)}
		if in.Kind != cpu.KindALU {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("record %d daddr: %w", i, err)
			}
			in.DAddr = d
		}
		instrs = append(instrs, in)
	}
	return instrs, nil
}

// validCoreParams rejects decoded pipeline parameters the cpu model would
// panic on (cpu.New's constructor contract).
func validCoreParams(core int, p cpu.Params) error {
	switch {
	case p.Width < 1 || p.Width > 64:
		return fmt.Errorf("workload: core %d has implausible width %d", core, p.Width)
	case p.ROB < p.Width || p.ROB > 1<<16:
		return fmt.Errorf("workload: core %d has implausible ROB %d", core, p.ROB)
	case math.IsNaN(p.BaseCPI) || math.IsInf(p.BaseCPI, 0) || p.BaseCPI < 1.0/float64(p.Width) || p.BaseCPI > 1e6:
		return fmt.Errorf("workload: core %d has implausible base CPI %v", core, p.BaseCPI)
	case math.IsNaN(p.DepChance) || p.DepChance < 0 || p.DepChance > 1:
		return fmt.Errorf("workload: core %d has implausible dep chance %v", core, p.DepChance)
	}
	return nil
}

// loadCapture decodes a NOC2 capture file.
func loadCapture(path string) (*capture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	c, err := readCapture(f)
	if err != nil {
		return nil, fmt.Errorf("workload: capture %s: %w", path, err)
	}
	return c, nil
}
