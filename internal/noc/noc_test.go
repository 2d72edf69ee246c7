package noc

import (
	"testing"

	"nocout/internal/sim"
)

// lineNet builds a unidirectional chain of n routers, with an NI at router 0
// (inject) and an NI at router n-1 (eject). Route: always forward; at the
// last router, eject. Per-hop budget: pipeDelay + 1-cycle link.
func lineNet(t *testing.T, n int, pipeDelay sim.Cycle, bufCap int) *RouterNetwork {
	t.Helper()
	rn := NewRouterNetwork("line", 2)
	routers := make([]*Router, n)
	for i := 0; i < n; i++ {
		i := i
		r := NewRouter(NodeID(100+i), "r", pipeDelay, nil)
		r.SetRoute(func(p *Packet) int { return 0 }) // single output
		routers[i] = r
		r.AddIn("in", bufCap)
		r.AddOut("out")
	}
	for i := 0; i < n-1; i++ {
		Connect(routers[i], 0, routers[i+1], 0, 1, 1.0)
	}
	src := NewNI(0, rn.StatsRef())
	dst := NewNI(1, rn.StatsRef())
	ConnectNIInject(src, routers[0], 0, 1)
	ConnectNIEject(dst, routers[n-1], 0, 1, 8)
	rn.Routers = routers
	rn.NIs[0] = src
	rn.NIs[1] = dst
	return rn
}

func TestZeroLoadLatencyLine(t *testing.T) {
	// 3 routers, pipe=2, link=1 (mesh budget): inject wire 1 + 3 hops of
	// (SA->pipe+link) + eject wire (pipe+1).
	rn := lineNet(t, 3, 2, 4)
	e := sim.NewEngine()
	e.Register(rn)
	var got *Packet
	rn.SetDeliver(1, func(now sim.Cycle, p *Packet) { got = p })
	p := &Packet{ID: 1, Class: ClassReq, Src: 0, Dst: 1, Size: 1}
	rn.Send(e.Now(), p)
	if !e.RunUntil(func() bool { return got != nil }, 100) {
		t.Fatal("packet never delivered")
	}
	// Expected: inject link 1 cycle; router i SA at arrival cycle, then
	// pipe+link = 3 to next; final router -> NI is pipe+1 = 3.
	// t=0 send; NI injects during tick at t=1 (flit pushed at 1, arrives 2);
	// r0 SA at 2 -> arrives r1 at 5; r1 SA -> r2 at 8; r2 SA -> NI at 11.
	if got.Latency() != 11 {
		t.Fatalf("zero-load latency = %d, want 11", got.Latency())
	}
	if got.Hops() != 3 {
		t.Fatalf("hops = %d, want 3", got.Hops())
	}
}

func TestMultiFlitSerialization(t *testing.T) {
	rn := lineNet(t, 2, 2, 8)
	e := sim.NewEngine()
	e.Register(rn)
	var got *Packet
	rn.SetDeliver(1, func(now sim.Cycle, p *Packet) { got = p })
	p := &Packet{ID: 1, Class: ClassResp, Src: 0, Dst: 1, Size: 5}
	rn.Send(e.Now(), p)
	if !e.RunUntil(func() bool { return got != nil }, 100) {
		t.Fatal("packet never delivered")
	}
	// Head: 1 (inject) + 1 (wire) + 3 + 3 = 8; tail trails by Size-1 = 4.
	if got.Latency() != 12 {
		t.Fatalf("5-flit latency = %d, want 12", got.Latency())
	}
}

func TestWormholePacketsStayAtomicPerVC(t *testing.T) {
	// Two packets of the same class injected back to back must arrive with
	// all flits of the first before the second completes.
	rn := lineNet(t, 2, 1, 4)
	e := sim.NewEngine()
	e.Register(rn)
	var order []uint64
	rn.SetDeliver(1, func(now sim.Cycle, p *Packet) { order = append(order, p.ID) })
	a := &Packet{ID: 1, Class: ClassReq, Src: 0, Dst: 1, Size: 4}
	b := &Packet{ID: 2, Class: ClassReq, Src: 0, Dst: 1, Size: 4}
	rn.Send(e.Now(), a)
	rn.Send(e.Now(), b)
	if !e.RunUntil(func() bool { return len(order) == 2 }, 200) {
		t.Fatal("packets never delivered")
	}
	if order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v", order)
	}
}

func TestClassesUseSeparateVCs(t *testing.T) {
	// A long response packet must not block a request packet indefinitely:
	// they travel in different VCs and interleave on the link.
	rn := lineNet(t, 2, 1, 4)
	e := sim.NewEngine()
	e.Register(rn)
	var deliveries []Class
	rn.SetDeliver(1, func(now sim.Cycle, p *Packet) { deliveries = append(deliveries, p.Class) })
	big := &Packet{ID: 1, Class: ClassResp, Src: 0, Dst: 1, Size: 12}
	small := &Packet{ID: 2, Class: ClassReq, Src: 0, Dst: 1, Size: 1}
	rn.Send(e.Now(), big)
	rn.Send(e.Now(), small)
	if !e.RunUntil(func() bool { return len(deliveries) == 2 }, 300) {
		t.Fatal("packets never delivered")
	}
	// The single-flit request should complete before the 12-flit response.
	if deliveries[0] != ClassReq {
		t.Fatalf("request should overtake the long response; order = %v", deliveries)
	}
}

func TestCreditBackpressureNeverOverflows(t *testing.T) {
	// Saturate a 2-router line with tiny buffers; the credit protocol must
	// prevent buffer overflow (the router panics on violation).
	rn := lineNet(t, 2, 2, 1)
	e := sim.NewEngine()
	e.Register(rn)
	n := 0
	rn.SetDeliver(1, func(now sim.Cycle, p *Packet) { n++ })
	for i := 0; i < 50; i++ {
		rn.Send(e.Now(), &Packet{ID: uint64(i), Class: ClassReq, Src: 0, Dst: 1, Size: 3})
	}
	if !e.RunUntil(func() bool { return n == 50 }, 5000) {
		t.Fatalf("only %d/50 packets delivered under backpressure", n)
	}
	st := rn.Stats()
	if st.Delivered != 50 || st.Injected != 50 {
		t.Fatalf("stats: injected=%d delivered=%d", st.Injected, st.Delivered)
	}
}

func TestThroughputOneFlitPerCycle(t *testing.T) {
	// A saturated line should sustain ~1 flit/cycle at the destination.
	rn := lineNet(t, 2, 1, 8)
	e := sim.NewEngine()
	e.Register(rn)
	n := 0
	rn.SetDeliver(1, func(now sim.Cycle, p *Packet) { n++ })
	const packets = 200
	for i := 0; i < packets; i++ {
		rn.Send(e.Now(), &Packet{ID: uint64(i), Class: ClassReq, Src: 0, Dst: 1, Size: 1})
	}
	start := e.Now()
	if !e.RunUntil(func() bool { return n == packets }, 1000) {
		t.Fatalf("only %d/%d delivered", n, packets)
	}
	elapsed := int64(e.Now() - start)
	if elapsed > packets+20 {
		t.Fatalf("throughput too low: %d cycles for %d single-flit packets", elapsed, packets)
	}
}

func TestStaticPriorityOrdering(t *testing.T) {
	// With a static priority favouring port 1 (network) over port 0
	// (local), a saturated network port should win every arbitration.
	stats := &Stats{}
	r := NewRouter(0, "prio", 1, nil)
	r.SetRoute(func(p *Packet) int { return 0 })
	r.AddIn("local", 4)
	r.AddIn("net", 4)
	r.AddOut("out")
	r.SetPriority([]Cand{
		{Port: 1, VC: ClassResp}, {Port: 0, VC: ClassResp},
		{Port: 1, VC: ClassReq}, {Port: 0, VC: ClassReq},
	})
	sink := NewRouter(1, "sink", 1, nil)
	sink.SetRoute(func(p *Packet) int { return 0 })
	in := sink.AddIn("in", 4)
	sink.AddOut("out")
	Connect(r, 0, sink, in, 1, 1)
	ni := NewNI(0, stats)
	ConnectNI(ni, sink, sink.AddIn("ni", 4), 0, 1, 1, 64)
	var got []uint64
	ni.SetDeliver(func(now sim.Cycle, p *Packet) { got = append(got, p.ID) })

	// Preload both input buffers directly.
	local := &Packet{ID: 100, Class: ClassReq, Src: 0, Dst: 0, Size: 1}
	net := &Packet{ID: 200, Class: ClassReq, Src: 0, Dst: 0, Size: 1}
	r.ins[0].vcs[ClassReq].push(Flit{Pkt: local}, 0)
	r.ins[1].vcs[ClassReq].push(Flit{Pkt: net}, 0)

	e := sim.NewEngine()
	e.Register(sim.TickFunc(r.Tick), sim.TickFunc(sink.Tick), sim.TickFunc(ni.Tick))
	if !e.RunUntil(func() bool { return len(got) == 2 }, 100) {
		t.Fatal("packets never delivered")
	}
	if got[0] != 200 {
		t.Fatalf("network port should win static priority; order = %v", got)
	}
}

func TestFlitsFor(t *testing.T) {
	cases := []struct {
		payload, width, want int
	}{
		{0, 128, 1},  // header-only request on 128-bit link
		{64, 128, 5}, // 64B line + 8B header = 576 bits -> 5 flits
		{64, 64, 9},  // narrower link doubles serialization
		{64, 32, 18}, // Figure 9 regime
		{8, 128, 1},  // 16B total fits one flit
		{64, 576, 1}, // very wide link
	}
	for _, c := range cases {
		if got := FlitsFor(c.payload, c.width); got != c.want {
			t.Errorf("FlitsFor(%d,%d) = %d, want %d", c.payload, c.width, got, c.want)
		}
	}
}

func TestRouteValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid route")
		}
	}()
	r := NewRouter(0, "bad", 1, func(p *Packet) int { return 7 })
	r.AddIn("in", 2)
	r.AddOut("out")
	r.ins[0].vcs[ClassReq].push(Flit{Pkt: &Packet{Size: 1}}, 0)
	r.Tick(1)
}

func TestStatsLatencyAccounting(t *testing.T) {
	rn := lineNet(t, 2, 1, 4)
	e := sim.NewEngine()
	e.Register(rn)
	done := 0
	rn.SetDeliver(1, func(now sim.Cycle, p *Packet) { done++ })
	rn.Send(e.Now(), &Packet{ID: 1, Class: ClassReq, Src: 0, Dst: 1, Size: 1})
	rn.Send(e.Now(), &Packet{ID: 2, Class: ClassResp, Src: 0, Dst: 1, Size: 5})
	e.RunUntil(func() bool { return done == 2 }, 200)
	st := rn.Stats()
	if st.Count[ClassReq] != 1 || st.Count[ClassResp] != 1 {
		t.Fatalf("per-class counts wrong: %+v", st.Count)
	}
	if st.AvgLatency(ClassResp) <= st.AvgLatency(ClassReq) {
		t.Fatal("5-flit response should have higher latency than 1-flit request")
	}
	if st.AvgLatencyAll() <= 0 {
		t.Fatal("average latency should be positive")
	}
}
