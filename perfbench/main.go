// Command perfbench is the repository's host-cost benchmark. It times the
// simulator on the paper's 64-core points, one simulated point per op,
// and checks every op's Result against pinned digests.
//
//	perfbench -workload fig7-nocout -seed 1 -seconds 30 -trace 0
//
// Workloads (all Table 1 64-core chips at Quick quality):
//
//	fig7-nocout  NOC-Out running Data Serving, cold every op
//	fig1-ideal   the same points on the Ideal fabric
//	mesh-replay  the mesh replaying NOC3 traces of MapReduce-Phased,
//	             every op a warm checkpoint hit
//
// With -trace 0 it prints the end-to-end metrics, with -trace 1 the
// per-layer ones (CPU profile shares, chip-layer call times, layer
// drivers). The last line of standard output is one JSON object; the
// lines before it are a readable report with the host record. All host
// times are wall-clock on the machine it runs on; simulated statistics
// serve only as checks and denominators. The model is unvalidated
// against hardware, and the benchmark makes no accuracy claim.
//
// -pin pins.json recomputes the digests for the default seed set and
// writes them to pins.json, which is embedded at build time.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nocout"
)

// pinsJSON maps workload → seed → Result digest. For the cold workloads
// the seed is the op's simulation seed; for mesh-replay it is the seed
// the trace was recorded at.
//
//go:embed pins.json
var pinsJSON []byte

// pinSeeds is the default seed set -pin covers: seeds 0..pinSeeds-1.
const pinSeeds = 32

// setupReps is how many times an untraced run sets up, at seeds seed,
// seed+1, ...; setup_s is the median.
const setupReps = 3

var workloadNames = []string{"fig7-nocout", "fig1-ideal", "mesh-replay"}

func newWorkload(name string, seed uint64) wload {
	switch name {
	case "fig7-nocout":
		return &coldRun{design: nocout.NOCOut, name: "Data Serving", seed: seed}
	case "fig1-ideal":
		return &coldRun{design: nocout.Ideal, name: "Data Serving", seed: seed}
	case "mesh-replay":
		return &replayRun{seed: seed}
	}
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 30, "how long the timed ops run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for traces, checkpoints, spans and profiles")
	pin := flag.String("pin", "", "recompute the pinned digests for seeds 0.."+strconv.Itoa(pinSeeds-1)+" and write them to this file")
	flag.Parse()
	// One P: the op's own goroutine and the garbage collector share one
	// CPU, so GC work is charged to the op that caused it and the peak RSS
	// does not depend on how fast a second CPU happens to run the
	// concurrent collector.
	runtime.GOMAXPROCS(1)

	if *pin != "" {
		if err := writePins(*pin, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if newWorkload(*name, 0) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var pins map[string]map[uint64]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pins.json:", err)
		return 1
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	b := &bench{
		name:    *name,
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		dir:     dir,
		checker: checker{pins: pins[*name], first: map[uint64]seen{}},
	}
	var metrics map[string]metric
	var err error
	if *trace == 1 {
		metrics, err = b.traced()
	} else {
		metrics, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := b.cleanup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.printReport(metrics)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checker verifies op digests: against the pin for the seed when there is
// one, and against the first digest seen at that seed in this run.
type checker struct {
	pins  map[uint64]string
	first map[uint64]seen
}

type seen struct{ digest, op string }

func (c *checker) check(op string, seed uint64, d string) error {
	if want, ok := c.pins[seed]; ok && d != want {
		return fmt.Errorf("Result digest %s differs from the pinned %s", d, want)
	}
	if f, ok := c.first[seed]; ok && d != f.digest {
		return fmt.Errorf("Result digest %s differs from %s, the run's first at this seed (%s)", d, f.digest, f.op)
	}
	if _, ok := c.first[seed]; !ok {
		c.first[seed] = seen{d, op}
	}
	return nil
}

// bench is one run of one workload.
type bench struct {
	name string
	seed uint64
	dur  time.Duration
	dir  string

	checker           checker
	attempted, failed int

	wl       wload
	setups   []float64 // seconds
	ops      []opOut   // timed ops that ran to the end
	opSecs   []float64
	allocMB  []float64
	tailPct  float64  // percentile point_s_tail reports
	flitHops int64    // traced ops' total, 0 on a router-less fabric
	profiles []string // the traced ops' CPU profiles
}

// fail counts a failed op and names it on standard error.
func (b *bench) fail(op string, seed uint64, err error) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED %s %s seed %d: %v\n", b.name, op, seed, err)
}

// setup prepares the workload reps times, each repetition at the next
// seed in a fresh directory, and checks each set-up's reference digests.
func (b *bench) setup(reps int, sp *spanLog) error {
	b.wl = newWorkload(b.name, b.seed)
	ok := false
	for k := 0; k < reps; k++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup-%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		refs, err := safely(func() (map[uint64]string, error) { return b.wl.setup(dir, k, sp) })
		b.setups = append(b.setups, time.Since(t0).Seconds())
		b.attempted++
		if err != nil {
			b.fail("set-up", b.seed+uint64(k), err)
			continue
		}
		ok = true
		for s, d := range refs {
			if err := b.checker.check("set-up", s, d); err != nil {
				b.fail("set-up", s, err)
			}
		}
	}
	if !ok {
		return fmt.Errorf("%s: every set-up failed", b.name)
	}
	return nil
}

// cleanup deletes the run's traces and checkpoints, keeping only a traced
// run's spans and profile.
func (b *bench) cleanup() error {
	ents, err := os.ReadDir(b.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if n := e.Name(); n != "spans.jsonl" && n != "cpu.pprof" {
			if err := os.RemoveAll(filepath.Join(b.dir, n)); err != nil {
				return err
			}
		}
	}
	if len(b.profiles) == 0 {
		return os.Remove(b.dir)
	}
	return nil
}

// safely runs f, turning a panic into an error.
func safely[T any](f func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// runOps runs timed ops for b.dur, keeping those that ran to the end. With
// tracing on, every odd op is traced: it records spans and runs under its
// own CPU profile, written to the run's directory. The even ops stay
// untraced, so the two halves see the same drift over the run.
func (b *bench) runOps(sp *spanLog) error {
	deadline := time.Now().Add(b.dur)
	for i := 0; time.Now().Before(deadline); i++ {
		traced := sp != nil && i%2 == 1
		opLog := sp
		if !traced {
			opLog = nil
		}
		var prof *os.File
		if traced {
			var err error
			if prof, err = os.Create(filepath.Join(b.dir, fmt.Sprintf("cpu-op-%d.pprof", i))); err != nil {
				return err
			}
			b.profiles = append(b.profiles, prof.Name())
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if prof != nil {
			if err := pprof.StartCPUProfile(prof); err != nil {
				prof.Close()
				return err
			}
		}
		t0 := time.Now()
		out, err := safely(func() (opOut, error) { return b.wl.op(i, opLog) })
		el := time.Since(t0)
		if prof != nil {
			pprof.StopCPUProfile()
			if err := prof.Close(); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		opLog.add(fmt.Sprintf("op-%d", i), "op", t0, el)
		b.attempted++
		op := fmt.Sprintf("op %d", i)
		if err != nil {
			b.fail(op, out.Seed, err)
			continue
		}
		// A wrong Result fails the op, but the op ran in full, so its
		// times still count.
		if err := b.checker.check(op, out.Seed, out.Digest); err != nil {
			b.fail(op, out.Seed, err)
		}
		out.Traced = traced
		b.ops = append(b.ops, out)
		b.opSecs = append(b.opSecs, el.Seconds())
		b.allocMB = append(b.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	return nil
}

// nsPerSimCycle is the median host ns per simulated cycle of ops.
func nsPerSimCycle(ops []opOut) float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = o.stepNS() / float64(o.Stepped)
	}
	return median(xs)
}

func (b *bench) untraced() (map[string]metric, error) {
	if err := b.setup(setupReps, nil); err != nil {
		return nil, err
	}
	if err := b.runOps(nil); err != nil {
		return nil, err
	}
	if len(b.ops) == 0 {
		return nil, fmt.Errorf("%s: no op ran to the end", b.name)
	}
	tail, pct := tailOf(b.opSecs)
	b.tailPct = pct
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	return map[string]metric{
		"point_s_p50":        {median(b.opSecs), "s"},
		"point_s_tail":       {tail, "s"},
		"ns_per_simcycle":    {nsPerSimCycle(b.ops), "ns"},
		"setup_s":            {median(b.setups), "s"},
		"alloc_mb_per_point": {median(b.allocMB), "MB"},
		"max_rss_mb":         {float64(ru.Maxrss) * 1024 / 1e6, "MB"}, // Maxrss is in KiB on Linux
	}, nil
}

// tailOf returns the highest percentile of xs with at least ten samples
// above it, and that percentile; with ten samples or fewer it is the
// maximum.
func tailOf(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// traced sets up once, runs ops alternately untraced and traced, then
// runs the layer drivers and writes the spans and the merged CPU profile
// of the traced ops to the run's directory.
func (b *bench) traced() (map[string]metric, error) {
	sp := &spanLog{t0: time.Now()}
	if err := b.setup(1, sp); err != nil {
		return nil, err
	}
	if err := b.runOps(sp); err != nil {
		return nil, err
	}
	var ops, plain []opOut
	for _, o := range b.ops {
		if o.Traced {
			ops = append(ops, o)
		} else {
			plain = append(plain, o)
		}
	}
	if len(plain) == 0 || len(ops) == 0 {
		return nil, fmt.Errorf("%s: a traced run needs ops that ran to the end both untraced and traced; raise -seconds", b.name)
	}

	m := map[string]float64{}
	var measureNS float64
	var hops, instrs, llc, injected int64
	for _, o := range ops {
		measureNS += float64(o.Measure.Nanoseconds())
		hops += o.Metrics.Net.FlitHops
		instrs += o.Metrics.Instrs
		llc += o.Metrics.Dir.Accesses
		injected += o.Metrics.Net.Injected
		if o.CkptBytes > 0 {
			m["ckpt.bytes"] = float64(o.CkptBytes)
		}
	}
	rate := float64(injected) / float64(len(ops)) / float64(quality.Window) // packets per cycle
	if err := driverMetrics(b.wl, rate, b.seed, b.dir, sp, m); err != nil {
		return nil, fmt.Errorf("layer drivers: %w", err)
	}
	if err := sp.write(filepath.Join(b.dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	profPath := filepath.Join(b.dir, "cpu.pprof")
	if err := mergeProfiles(profPath, b.profiles); err != nil {
		return nil, err
	}
	shares, err := hostShares(profPath)
	if err != nil {
		return nil, err
	}

	out := map[string]metric{}
	for _, name := range []string{"build", "prewarm", "warmup", "measure", "report", "restore", "snapshot"} {
		out["chip."+name+"_ms"] = metric{sp.medianMS("chip." + name), "ms"}
	}
	out["ckpt.bytes"] = metric{m["ckpt.bytes"], "bytes"}
	for _, l := range layers {
		out["host_share."+l] = metric{shares[l], "%"}
	}
	// Cost per simulated event: a layer's share of host time over the
	// measure phase, divided by the window's count of that event.
	per := func(share float64, count int64) float64 {
		if count == 0 {
			return 0 // not applicable: the window has no such events
		}
		return share / 100 * measureNS / float64(count)
	}
	out["noc.ns_per_flit_hop"] = metric{per(shares["sim"]+shares["noc"]+shares["topo"]+shares["core"], hops), "ns"}
	out["cpu.ns_per_instr"] = metric{per(shares["cpu"], instrs), "ns"}
	out["coherence.ns_per_llc_access"] = metric{per(shares["coherence"]+shares["cache"], llc), "ns"}
	out["workload.ns_per_instr"] = metric{per(shares["workload"], instrs), "ns"}
	for _, k := range []string{"noc.load_ns_per_cycle", "cache.l1d.lookup_ns", "cache.l1d.probe_ns",
		"cache.llc.lookup_ns", "cache.llc.probe_ns", "workload.next_ns", "workload.decode_ns", "sim.pipe_ns"} {
		out[k] = metric{m[k], "ns"}
	}
	out["trace.overhead_pct"] = metric{100 * (nsPerSimCycle(ops)/nsPerSimCycle(plain) - 1), "%"}
	b.flitHops = hops
	return out, nil
}
