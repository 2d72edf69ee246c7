package noc

import (
	"fmt"
	"strings"
	"testing"

	"nocout/internal/sim"
)

// linkPair wires NI 0 -> router "src" -> router "dst" -> NI 1, with the
// src->dst link costing pipeDelay+linkDelay cycles, and registers it on an
// engine running the requested kernel.
type linkPair struct {
	rn       *RouterNetwork
	src, dst *Router
	e        *sim.Engine
	got      []*Packet
}

func newLinkPair(t *testing.T, scheduled bool, pipeDelay, linkDelay sim.Cycle) *linkPair {
	t.Helper()
	l := &linkPair{rn: NewRouterNetwork("pair", 2)}
	forward := func(p *Packet) int { return 0 }
	l.src = NewRouter(100, "src", pipeDelay, forward)
	l.src.AddIn("ni", 4)
	l.src.AddOut("east")
	l.dst = NewRouter(101, "dst", 1, forward)
	l.dst.AddIn("west", 4)
	l.dst.AddOut("ni")
	Connect(l.src, 0, l.dst, 0, linkDelay, 1)
	in, out := NewNI(0, l.rn.StatsRef()), NewNI(1, l.rn.StatsRef())
	ConnectNIInject(in, l.src, 0, 1)
	ConnectNIEject(out, l.dst, 0, 1, 8)
	l.rn.Routers = []*Router{l.src, l.dst}
	l.rn.NIs[0], l.rn.NIs[1] = in, out
	l.rn.SetDeliver(1, func(now sim.Cycle, p *Packet) { l.got = append(l.got, p) })
	l.e = sim.NewEngine()
	l.e.SetScheduled(scheduled)
	l.e.Register(l.rn)
	return l
}

var kernels = []struct {
	name      string
	scheduled bool
}{{"scheduled", true}, {"naive", false}}

// TestLinkTiming checks the buffer-as-wire link on both kernels: each
// flit of a packet sent over a link of delay d at cycle t is first
// granted downstream at t+d.
func TestLinkTiming(t *testing.T) {
	const pipe, link = 3, 17
	const d = pipe + link
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			l := newLinkPair(t, k.scheduled, pipe, link)
			const size = 3
			l.rn.Send(0, &Packet{ID: 1, Class: ClassResp, Src: 0, Dst: 1, Size: size})
			// The NI injects flit k at cycle 1+k; it reaches src one
			// cycle later, and src grants it on arrival.
			var sentAt, grantedAt []sim.Cycle
			for l.e.Now() < 2+size+d+size {
				s, g := l.src.FlitsRouted(), l.dst.FlitsRouted()
				l.e.Step(1)
				if l.src.FlitsRouted() > s {
					sentAt = append(sentAt, l.e.Now())
				}
				if l.dst.FlitsRouted() > g {
					grantedAt = append(grantedAt, l.e.Now())
				}
			}
			if len(sentAt) != size || len(grantedAt) != size {
				t.Fatalf("sent at %v, granted at %v; want %d flits each", sentAt, grantedAt, size)
			}
			for i := range sentAt {
				if sentAt[i] != sim.Cycle(2+i) || grantedAt[i] != sentAt[i]+d {
					t.Fatalf("flit %d sent at %d, granted downstream at %d; want %d and %d",
						i, sentAt[i], grantedAt[i], 2+i, 2+i+d)
				}
			}
			if l.e.RunUntil(func() bool { return len(l.got) == 1 }, 100); len(l.got) != 1 {
				t.Fatal("packet never delivered")
			}
		})
	}
}

// TestLinkSleepsUntilArrival checks with Engine.Ticks that a router
// holding only in-flight flits is not ticked before the first arrives:
// neither dst asleep with a flit on its link, nor dst right after a
// grant with the next packet still on the link (its NextWake report).
func TestLinkSleepsUntilArrival(t *testing.T) {
	const pipe, link = 2, 40
	const d = pipe + link
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			l := newLinkPair(t, k.scheduled, pipe, link)
			// ticksOver steps n cycles and checks the ticks they ran; the
			// naive kernel ticks all four components every cycle.
			ticksOver := func(n sim.Cycle, scheduledWant int64) {
				t.Helper()
				before := l.e.Ticks()
				l.e.Step(n)
				want := scheduledWant
				if !k.scheduled {
					want = int64(n) * 4
				}
				if got := l.e.Ticks() - before; got != want {
					t.Fatalf("cycles %d-%d ran %d ticks, want %d", l.e.Now()-n+1, l.e.Now(), got, want)
				}
			}
			l.rn.Send(0, &Packet{ID: 1, Class: ClassReq, Src: 0, Dst: 1, Size: 1})
			l.e.Step(2) // injected at 1, sent by src at 2, arrives at 2+d
			ticksOver(7, 0)
			l.rn.Send(l.e.Now(), &Packet{ID: 2, Class: ClassReq, Src: 0, Dst: 1, Size: 1})
			l.e.Step(d - 7) // packet 2 sent at 9: by src at 11, arrives at 11+d
			if l.src.FlitsRouted() != 2 || l.dst.FlitsRouted() != 1 {
				t.Fatalf("at cycle %d: src routed %d, dst %d; want 2 and 1", l.e.Now(), l.src.FlitsRouted(), l.dst.FlitsRouted())
			}
			// dst granted packet 1 this cycle; packet 2 is still on the
			// link. Only the eject NI's delivery of packet 1 (at 4+d)
			// may run before packet 2 arrives.
			ticksOver(8, 1)
			l.e.Step(1)
			if l.dst.FlitsRouted() != 2 {
				t.Fatalf("packet 2 not granted on arrival at cycle %d", l.e.Now())
			}
		})
	}
}

// TestCreditViolationPanics forges credits so src oversends into a
// blocked dst: the send that overflows the VC buffer must panic, naming
// the router, input port and VC.
func TestCreditViolationPanics(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			l := newLinkPair(t, k.scheduled, 1, 1)
			l.src.outs[0].credits[ClassSnoop] += 100 // forged: dst holds only 4
			l.dst.outs[0].credits[ClassSnoop] = 0    // dst's eject side is blocked
			for i := range 10 {
				l.rn.Send(0, &Packet{ID: uint64(i), Class: ClassSnoop, Src: 0, Dst: 1, Size: 1})
			}
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"dst", "input west", "VC snoop", "overflow"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("panic %q does not name %q", msg, want)
					}
				}
			}()
			l.e.Step(50)
		})
	}
}
