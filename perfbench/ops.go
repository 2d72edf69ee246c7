package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nocout"
	"nocout/internal/chip"
	"nocout/internal/physic"
	"nocout/internal/sim"
	"nocout/internal/workload"
)

// quality is every workload's effort: Quick (12k warm-up + 20k window
// cycles, one seed), the level a user sweeps at.
var quality = nocout.Quick

// seedCycle is how many distinct simulation seeds a cold workload cycles
// through in one run: op i runs seed base+i%seedCycle, so every seed
// recurs and each later op at a seed is checked against the first.
const seedCycle = 8

// recordInstrs is the per-core length of mesh-replay's recorded trace;
// finite traces loop, and 60k instructions covers a Quick run's warm-up
// and window on MapReduce-Phased without wrapping much.
const recordInstrs = 60000

// opOut is what one op produced: its Result digest, the host time it
// spent stepping simulated cycles, and the deterministic counts the
// per-layer ratios divide by. Every chip-layer call is also a span.
type opOut struct {
	Seed            uint64
	Digest          string
	Warmup, Measure time.Duration
	Stepped         sim.Cycle // cycles Warmup and Measure simulated
	CkptBytes       int       // size of the snapshot restored (mesh-replay)
	Metrics         chip.Metrics
	Traced          bool // ran under the CPU profile, recording spans
}

// stepNS is the host time the op spent stepping simulated cycles.
func (o opOut) stepNS() float64 { return float64((o.Warmup + o.Measure).Nanoseconds()) }

// wload is one benchmark workload bound to the run's seed.
type wload interface {
	// setup prepares repetition k in dir: it runs the untimed warm-up op
	// at the k-th seed through nocout's public API and returns the
	// reference digest of every seed it computed.
	setup(dir string, k int, sp *spanLog) (map[uint64]string, error)
	// op runs timed op i.
	op(i int, sp *spanLog) (opOut, error)
	// config and source are the system an op simulates and the workload
	// it runs; synthetic is the generator behind it and trace its NOC3
	// recording (nil for the cold workloads). The layer drivers use them.
	config() chip.Config
	source() workload.Workload
	synthetic() workload.Workload
	trace() workload.Workload
}

// timed runs f and records it as a span of op key.
func timed(sp *spanLog, key, name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.add(key, name, t0, d)
	return d
}

// resultOf assembles a single-seed point's Result from its chip exactly as
// nocout's runner does; each set-up checks the two agree.
func resultOf(c *chip.Chip, cfg chip.Config, w workload.Workload, m chip.Metrics) (nocout.Result, error) {
	area, kind, err := nocout.AreaModel(cfg)
	if err != nil {
		return nocout.Result{}, err
	}
	res := nocout.Result{
		Design:        cfg.Design,
		Workload:      w.Name(),
		ActiveCores:   m.ActiveCores,
		AggIPC:        m.AggIPC,
		AvgNetLatency: m.AvgNetLatency,
		SnoopRate:     m.Dir.SnoopRate(),
		LLCMissRate:   m.Dir.MissRate(),
		L1IMPKI:       m.L1IMPKI,
		L1DMPKI:       m.L1DMPKI,
		NoCPower:      physic.NetworkPowerKind(*c.Net.Stats(), c.NetRouters(), int64(quality.Window), cfg.LinkBits, area, kind),
	}
	if cfg.Hierarchy != chip.SharedNUCA {
		res.Hierarchy = cfg.Hierarchy.String()
	}
	if res.ActiveCores > 0 {
		res.PerCoreIPC = res.AggIPC / float64(res.ActiveCores)
	}
	if m.PerMemberIPC != nil {
		res.PerWorkloadIPC = m.PerMemberIPC
	}
	return res, nil
}

// digest is the pinned identity of a Result: SHA-256 of its JSON.
func digest(res nocout.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12]), nil
}

// measure steps a warm chip through the window and reports it.
func measure(c *chip.Chip, cfg chip.Config, w workload.Workload, sp *spanLog, key string, out *opOut) error {
	out.Measure = timed(sp, key, "chip.measure", func() { c.Run(quality.Window) })
	var err error
	timed(sp, key, "chip.report", func() {
		out.Metrics = c.Metrics()
		var res nocout.Result
		if res, err = resultOf(c, cfg, w, out.Metrics); err == nil {
			out.Digest, err = digest(res)
		}
	})
	return err
}

// coldRun is a workload whose every op builds, prewarms and warms a chip
// from scratch: fig7-nocout and fig1-ideal.
type coldRun struct {
	design chip.Design
	name   string // simulated workload
	seed   uint64
	w      workload.Workload
}

func (r *coldRun) opSeed(i int) uint64 { return r.seed + uint64(i%seedCycle) }

func (r *coldRun) config() chip.Config {
	cfg := chip.DefaultConfig(r.design)
	cfg.Seed = r.seed
	return cfg
}

func (r *coldRun) source() workload.Workload    { return r.w }
func (r *coldRun) synthetic() workload.Workload { return r.w }
func (r *coldRun) trace() workload.Workload     { return nil }

func (r *coldRun) setup(_ string, k int, sp *spanLog) (map[uint64]string, error) {
	w, err := nocout.ParseWorkload(r.name)
	if err != nil {
		return nil, err
	}
	r.w = w
	cfg := r.config()
	cfg.Seed = r.opSeed(k)
	var res nocout.Result
	timed(sp, "setup", "nocout.RunWorkload", func() { res = nocout.RunWorkload(cfg, w, quality) })
	d, err := digest(res)
	if err != nil {
		return nil, err
	}
	return map[uint64]string{cfg.Seed: d}, nil
}

func (r *coldRun) op(i int, sp *spanLog) (out opOut, err error) {
	key := fmt.Sprintf("op-%d", i)
	cfg := chip.DefaultConfig(r.design)
	cfg.Seed = r.opSeed(i)
	out.Seed = cfg.Seed
	out.Stepped = quality.Warmup + quality.Window
	var c *chip.Chip
	timed(sp, key, "chip.build", func() { c = chip.New(cfg, r.w) })
	timed(sp, key, "chip.prewarm", c.PrewarmCaches)
	out.Warmup = timed(sp, key, "chip.warmup", func() { c.Warmup(quality.Warmup) })
	err = measure(c, cfg, r.w, sp, key, &out)
	return out, err
}

// replayRun is mesh-replay: Figure 1's mesh replaying recorded NOC3
// traces of MapReduce-Phased, every op a warm hit of the checkpointed
// sweep path. Set-up repetition k records seed+k, and the ops cycle over
// the prefixes set-up produced.
type replayRun struct {
	seed     uint64
	src      workload.Workload // the recorded generator
	prefixes []prefix
}

// prefix is one recorded trace and its stored warm state.
type prefix struct {
	seed uint64
	cfg  chip.Config
	w    workload.Workload // the NOC3 trace
	snap string            // the stored warm prefix
}

func (r *replayRun) config() chip.Config          { return r.prefixes[0].cfg }
func (r *replayRun) source() workload.Workload    { return r.prefixes[0].w }
func (r *replayRun) synthetic() workload.Workload { return r.src }
func (r *replayRun) trace() workload.Workload     { return r.prefixes[0].w }

// setup records the trace, warms the cold prefix and snapshots it into a
// checkpoint store under the point's PrefixKey, measures the cold point,
// then runs one untimed op through the Runner with that store — the path
// WithCheckpoints takes — which must hit and match the cold point.
func (r *replayRun) setup(dir string, k int, sp *spanLog) (map[uint64]string, error) {
	var err error
	if r.src, err = nocout.ParseWorkload("MapReduce-Phased"); err != nil {
		return nil, err
	}
	pf := prefix{seed: r.seed + uint64(k)}
	path := filepath.Join(dir, "mapreduce.noc3")
	timed(sp, "setup", "workload.record", func() {
		err = nocout.RecordTraceFile(path, r.src, chip.Table1Config().Cores, recordInstrs, pf.seed)
	})
	if err != nil {
		return nil, fmt.Errorf("record trace: %w", err)
	}
	sw, err := nocout.NewExperiment(
		nocout.WithDesigns(nocout.Mesh),
		nocout.WithWorkloads("trace:"+path),
		nocout.WithQuality(quality),
		nocout.WithSeed(pf.seed),
	).Sweep()
	if err != nil {
		return nil, err
	}
	if sw.Len() != 1 {
		return nil, fmt.Errorf("mesh-replay sweep has %d points, want 1", sw.Len())
	}
	p := sw.Points[0]
	pf.cfg = p.Config
	if pf.w, err = nocout.LoadTrace(path); err != nil {
		return nil, err
	}

	var out opOut
	var c *chip.Chip
	var buf bytes.Buffer
	timed(sp, "setup", "chip.build", func() { c = chip.New(pf.cfg, pf.w) })
	timed(sp, "setup", "chip.prewarm", c.PrewarmCaches)
	timed(sp, "setup", "chip.warmup", func() { c.Warmup(quality.Warmup) })
	timed(sp, "setup", "chip.snapshot", func() { err = c.Snapshot(&buf) })
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if err := measure(c, pf.cfg, pf.w, sp, "setup", &out); err != nil {
		return nil, err
	}

	key, err := p.PrefixKey(quality, 0)
	if err != nil {
		return nil, err
	}
	ckdir := filepath.Join(dir, "ckpt")
	store, err := nocout.NewCheckpointStore(ckdir)
	if err != nil {
		return nil, err
	}
	pf.snap = filepath.Join(ckdir, key+".nock")
	if err := os.WriteFile(pf.snap, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var rep *nocout.Report
	timed(sp, "setup", "nocout.Runner.Run", func() {
		rep, err = (&nocout.Runner{Workers: 1, Checkpoints: store}).Run(context.Background(), sw)
	})
	if err != nil {
		return nil, err
	}
	if hits, misses, _ := store.Stats(); hits != 1 || misses != 0 {
		return nil, fmt.Errorf("checkpointed sweep: %d hits, %d misses on the stored prefix, want 1 hit", hits, misses)
	}
	warm, err := digest(rep.Results[0].Result)
	if err != nil {
		return nil, err
	}
	if warm != out.Digest {
		return nil, fmt.Errorf("checkpointed sweep result %s differs from the cold point %s", warm, out.Digest)
	}
	r.prefixes = append(r.prefixes, pf)
	return map[uint64]string{pf.seed: out.Digest}, nil
}

func (r *replayRun) op(i int, sp *spanLog) (out opOut, err error) {
	key := fmt.Sprintf("op-%d", i)
	pf := r.prefixes[i%len(r.prefixes)]
	out.Seed = pf.seed
	out.Stepped = quality.Window
	var c *chip.Chip
	timed(sp, key, "chip.restore", func() {
		var data []byte
		if data, err = os.ReadFile(pf.snap); err != nil {
			return
		}
		out.CkptBytes = len(data)
		c, err = chip.Restore(pf.cfg, pf.w, 1, bytes.NewReader(data))
	})
	if err != nil {
		return out, fmt.Errorf("restore: %w", err)
	}
	err = measure(c, pf.cfg, pf.w, sp, key, &out)
	return out, err
}
