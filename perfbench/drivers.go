package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"nocout"
	"nocout/internal/cache"
	"nocout/internal/chip"
	"nocout/internal/cpu"
	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/workload"
)

// The layer drivers run one layer outside the chip, in the traced run
// only, so the untraced end-to-end numbers never include them. Each is
// seeded and repeated; it reports the median.
const driverReps = 3

// sinkInt keeps driver results live so the compiler cannot drop the calls.
var sinkInt int

func medianOf(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// ckptDriver snapshots and restores a warm chip of the workload, for the
// cold workloads, whose ops never do; mesh-replay's set-up times both.
func ckptDriver(cfg chip.Config, w workload.Workload, sp *spanLog) (bytesOut int, err error) {
	c := chip.New(cfg, w)
	c.PrewarmCaches()
	c.Warmup(quality.Warmup)
	for i := 0; i < driverReps; i++ {
		var buf bytes.Buffer
		timed(sp, "driver", "chip.snapshot", func() { err = c.Snapshot(&buf) })
		if err != nil {
			return 0, fmt.Errorf("snapshot: %w", err)
		}
		bytesOut = buf.Len()
		timed(sp, "driver", "chip.restore", func() { _, err = chip.Restore(cfg, w, 1, bytes.NewReader(buf.Bytes())) })
		if err != nil {
			return 0, fmt.Errorf("restore: %w", err)
		}
	}
	return bytesOut, nil
}

// nocLoadDriver runs noc.MeasureLoad on the workload's bare fabric, built
// through its registered Organization, with the paper's core↔LLC
// bilateral pattern at the packet rate the chip measured. It returns host
// ns per simulated cycle.
func nocLoadDriver(cfg chip.Config, rate float64, seed uint64) (float64, error) {
	org, err := chip.OrganizationOf(cfg.Design)
	if err != nil {
		return 0, err
	}
	const warmup, window = 1000, 5000
	respFlits := noc.FlitsFor(64, cfg.LinkBits)
	return medianOf(driverReps, func() float64 {
		fab := org.Build(cfg)
		var cores, banks, nodes []noc.NodeID
		for i := 0; i < cfg.Cores; i++ {
			cores = append(cores, fab.CoreNode(i))
		}
		for b := 0; b < fab.NumBanks; b++ {
			banks = append(banks, fab.BankNode(b))
		}
		nodes = append(append(nodes, cores...), banks...)
		t0 := time.Now()
		noc.MeasureLoad(fab.Net, nodes, noc.BilateralPattern(cores, banks, respFlits), rate, warmup, window, seed)
		return float64(time.Since(t0).Nanoseconds()) / (warmup + window)
	}), nil
}

// dataLines collects the line addresses the workload's loads and stores
// touch on its first cores.
func dataLines(w workload.Workload, seed uint64) []uint64 {
	const cores, perCore = 8, 20000
	var lines []uint64
	for c := 0; c < cores; c++ {
		s := w.StreamFor(c, seed)
		for i := 0; i < perCore; i++ {
			in := s.Next()
			if in.Kind == cpu.KindLoad || in.Kind == cpu.KindStore {
				lines = append(lines, cache.LineAddr(in.DAddr))
			}
		}
	}
	return lines
}

// arrayDriver fills a cache.Array with lines, then times Lookup and Probe
// over them; it returns ns per call of each.
func arrayDriver(a *cache.Array, lines []uint64) (lookupNS, probeNS float64) {
	for _, l := range lines {
		if _, hit := a.Lookup(l); !hit {
			a.Insert(l)
		}
	}
	const calls = 1 << 20
	run := func(f func(uint64) (int, bool)) float64 {
		return medianOf(driverReps, func() float64 {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				slot, _ := f(lines[i%len(lines)])
				sinkInt += slot
			}
			return float64(time.Since(t0).Nanoseconds()) / calls
		})
	}
	return run(a.Lookup), run(a.Probe)
}

// streamDriver times Next on the first cores' streams of w: ns per
// instruction.
func streamDriver(w workload.Workload, seed uint64) float64 {
	const cores, perCore = 4, 60000
	return medianOf(driverReps, func() float64 {
		t0 := time.Now()
		for c := 0; c < cores; c++ {
			s := w.StreamFor(c, seed)
			for i := 0; i < perCore; i++ {
				sinkInt += int(s.Next().Kind)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / (cores * perCore)
	})
}

// pipeDriver times one sim.Pipe push and pop per simulated cycle: ns per
// pair.
func pipeDriver(seed uint64) float64 {
	const pairs = 1 << 21
	rng := sim.NewRNG(seed)
	return medianOf(driverReps, func() float64 {
		p := sim.NewPipe[uint64]("perfbench", 1)
		var now sim.Cycle
		t0 := time.Now()
		for i := 0; i < pairs; i++ {
			p.Push(now, rng.Uint64())
			now++
			v, _ := p.Pop(now)
			sinkInt += int(v & 1)
		}
		return float64(time.Since(t0).Nanoseconds()) / pairs
	})
}

// driverMetrics runs every layer driver for a workload and returns the
// per-layer metrics they give. A workload without a NOC3 trace decodes a
// short one recorded from its generator into dir.
func driverMetrics(wl wload, rate float64, seed uint64, dir string, sp *spanLog, m map[string]float64) error {
	cfg, w := wl.config(), wl.source()
	if _, cold := wl.(*coldRun); cold {
		n, err := ckptDriver(cfg, w, sp)
		if err != nil {
			return err
		}
		m["ckpt.bytes"] = float64(n)
	}
	load, err := nocLoadDriver(cfg, rate, seed)
	if err != nil {
		return err
	}
	m["noc.load_ns_per_cycle"] = load

	c := chip.New(cfg, w)
	lines := dataLines(w, seed)
	l1 := cache.NewArray(c.Memory.L1Conf.DSizeBytes, c.Memory.L1Conf.DWays)
	m["cache.l1d.lookup_ns"], m["cache.l1d.probe_ns"] = arrayDriver(l1, lines)
	bank := c.Memory.BankConf(0)
	llc := cache.NewArray(bank.SizeBytes, bank.Ways)
	llc.SetHash(true) // as coherence.NewBank configures every LLC bank
	m["cache.llc.lookup_ns"], m["cache.llc.probe_ns"] = arrayDriver(llc, lines)

	synth, trace := wl.synthetic(), wl.trace()
	if trace == nil {
		path := filepath.Join(dir, "driver.noc3")
		if err := nocout.RecordTraceFile(path, synth, 4, 60000, seed); err != nil {
			return fmt.Errorf("record driver trace: %w", err)
		}
		if trace, err = nocout.LoadTrace(path); err != nil {
			return err
		}
	}
	m["workload.next_ns"] = streamDriver(synth, seed)
	m["workload.decode_ns"] = streamDriver(trace, seed)
	m["sim.pipe_ns"] = pipeDriver(seed)
	return nil
}
