package nocout

import (
	"testing"
	"time"

	"nocout/internal/chip"
	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/topo"
	"nocout/internal/workload"
)

// This file benchmarks the event-scheduled kernel against the naive
// tick-everything kernel. The headline case is the one the tentpole
// targets: low-injection traffic where idle cycles dominate, so the
// scheduled kernel advances the clock in jumps between wake events instead
// of ticking 100+ quiescent routers and NIs every cycle.
//
// Run with:
//
//	go test -bench Kernel -benchtime 1x -run '^$' .
//
// and compare the ns/simcycle metric between the naive/ and scheduled/
// sub-benchmarks (the acceptance target is >= 1.5x on the low-injection
// configuration; in practice the win is far larger).

// pacedInjector injects one 5-flit packet between a rotating deterministic
// pair of mesh endpoints every period cycles. It is a Sleeper, so on the
// scheduled kernel the whole simulation quiesces between injections.
type pacedInjector struct {
	net    noc.Network
	nodes  uint64
	period sim.Cycle
	id     uint64
}

func (pi *pacedInjector) Tick(now sim.Cycle) {
	if now%pi.period != 0 {
		return
	}
	pi.id++
	src := noc.NodeID(pi.id % pi.nodes)
	dst := noc.NodeID((pi.id*7 + 13) % pi.nodes)
	if dst == src {
		dst = noc.NodeID((uint64(dst) + 1) % pi.nodes)
	}
	pi.net.Send(now, &noc.Packet{ID: pi.id, Class: noc.ClassReq, Src: src, Dst: dst, Size: 5})
}

func (pi *pacedInjector) NextWake(now sim.Cycle) sim.Cycle {
	return now - now%pi.period + pi.period
}

// runLowInjection simulates cycles of a 64-tile mesh with one packet in
// flight every period cycles and returns the delivered-packet count.
func runLowInjection(scheduled bool, cycles, period sim.Cycle) int64 {
	plan := topo.TiledFloorplan(64, 8)
	rn := topo.NewMesh(topo.DefaultMeshParams(plan))
	delivered := int64(0)
	for n := 0; n < plan.NumTiles(); n++ {
		rn.SetDeliver(noc.NodeID(n), func(now sim.Cycle, p *noc.Packet) { delivered++ })
	}
	e := sim.NewEngine()
	e.SetScheduled(scheduled)
	e.Register(rn)
	e.Register(&pacedInjector{net: rn, nodes: uint64(plan.NumTiles()), period: period})
	e.Step(cycles)
	return delivered
}

// TestKernelLowInjectionEquivalence pins that the benchmark workload
// behaves identically on both kernels (so the benchmark compares equal
// work).
func TestKernelLowInjectionEquivalence(t *testing.T) {
	const cycles, period = 100_000, 200
	ds, dn := runLowInjection(true, cycles, period), runLowInjection(false, cycles, period)
	if ds != dn || ds == 0 {
		t.Fatalf("delivered: scheduled %d, naive %d (want equal, nonzero)", ds, dn)
	}
}

// BenchmarkKernelLowInjection is the tentpole's headline: a 64-tile mesh
// at one packet per 200 cycles (idle cycles dominate — the regime of the
// paper's measured workloads, whose networks run far below saturation,
// §6.1).
func BenchmarkKernelLowInjection(b *testing.B) {
	const cycles, period = 200_000, 200
	for _, m := range []struct {
		name      string
		scheduled bool
	}{{"naive", false}, {"scheduled", true}} {
		b.Run(m.name, func(b *testing.B) {
			var delivered int64
			for i := 0; i < b.N; i++ {
				delivered = runLowInjection(m.scheduled, cycles, period)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(cycles)*int64(b.N)), "ns/simcycle")
			b.ReportMetric(float64(delivered), "pkts")
		})
	}
}

// BenchmarkKernelChip measures a full 64-core chip (NOC-Out, Web Search)
// on both kernels at bench quality: cores sleep through fetch stalls,
// routers and banks sleep between bursts, so the scheduled kernel wins
// even though the chip never fully quiesces.
func BenchmarkKernelChip(b *testing.B) {
	w, err := workload.Parse("Web Search")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(NOCOut)
	for _, m := range []struct {
		name      string
		scheduled bool
	}{{"naive", false}, {"scheduled", true}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := chip.New(cfg, w)
				c.Engine.SetScheduled(m.scheduled)
				c.PrewarmCaches()
				c.Warmup(benchQ.Warmup)
				c.Run(benchQ.Window)
				if mt := c.Metrics(); mt.AggIPC <= 0 {
					b.Fatalf("implausible run: %+v", mt)
				}
			}
			simCycles := int64(benchQ.Warmup+benchQ.Window) * int64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(simCycles), "ns/simcycle")
		})
	}
}

// BenchmarkKernelSteadyState measures the kernel's steady state on the
// full 64-core NOC-Out chip (Web Search). Construction and warm-up are
// excluded (ResetTimer), so ns/simcycle is the marginal cost of a
// simulated cycle and allocs/op is the steady-state allocation per
// 2000-cycle chunk — the two numbers BENCH_kernel.json tracks.
func BenchmarkKernelSteadyState(b *testing.B) {
	w, err := workload.Parse("Web Search")
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 2000
	c := chip.New(DefaultConfig(NOCOut), w)
	c.PrewarmCaches()
	c.Warmup(benchQ.Warmup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(chunk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(chunk)*int64(b.N)), "ns/simcycle")
}

// BenchmarkKernelSpeedup reports the naive/scheduled wall-clock ratio on
// the low-injection configuration in one number (the acceptance metric).
func BenchmarkKernelSpeedup(b *testing.B) {
	const cycles, period = 200_000, 200
	runLowInjection(true, cycles, period) // warm code paths once
	for i := 0; i < b.N; i++ {
		nv := timed(func() { runLowInjection(false, cycles, period) })
		sc := timed(func() { runLowInjection(true, cycles, period) })
		ratio := float64(nv) / float64(sc)
		b.ReportMetric(ratio, "naive/scheduled")
		if i == 0 {
			b.Logf("low-injection mesh: naive %v, scheduled %v, speedup %.1fx",
				time.Duration(nv), time.Duration(sc), ratio)
		}
	}
}

func timed(f func()) int64 {
	start := time.Now()
	f()
	return time.Since(start).Nanoseconds()
}

// BenchmarkRouterLoad is the router layer's benchmark: noc.MeasureLoad
// drives the paper's core-to-LLC bilateral pattern (single-flit requests,
// line-sized responses) at a fixed network-wide injection rate through a
// bare fabric built by the design's Organization — Mesh's 8×8 tiles and
// NOC-Out's trees plus flattened butterfly, 64 cores each. No cores or
// caches run, so ns/cycle and ns/flit-hop price the routers, NIs and the
// wake calendar alone. The rate sits below both fabrics' saturation.
func BenchmarkRouterLoad(b *testing.B) {
	const rate, warmup, window = 1.0, 1000, 10_000
	for _, d := range []Design{Mesh, NOCOut} {
		b.Run(d.String(), func(b *testing.B) {
			cfg := DefaultConfig(d)
			org, err := chip.OrganizationOf(d)
			if err != nil {
				b.Fatal(err)
			}
			var hops int64
			var lp noc.LoadPoint
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fab := org.Build(cfg)
				var cores, banks []noc.NodeID
				for c := 0; c < cfg.Cores; c++ {
					cores = append(cores, fab.CoreNode(c))
				}
				for k := 0; k < fab.NumBanks; k++ {
					banks = append(banks, fab.BankNode(k))
				}
				pattern := noc.BilateralPattern(cores, banks, noc.FlitsFor(64, cfg.LinkBits))
				b.StartTimer()
				lp = noc.MeasureLoad(fab.Net, append(cores, banks...), pattern, rate, warmup, window, cfg.Seed)
				for _, r := range fab.Routers {
					hops += r.FlitsRouted()
				}
			}
			if lp.Saturated {
				b.Fatalf("%s saturated at %.2f pkts/cycle: %+v", d, rate, lp)
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(int64(warmup+window)*int64(b.N)), "ns/cycle")
			b.ReportMetric(ns/float64(hops), "ns/flit-hop")
		})
	}
}
