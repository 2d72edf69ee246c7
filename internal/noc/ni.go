package noc

import (
	"fmt"

	"nocout/internal/sim"
)

// NI is a network interface: the boundary between a protocol agent (core,
// LLC bank, memory controller) and the network. It serializes packets into
// flits on the inject side (one flit per cycle through the local port,
// credit-gated) and reassembles flits into packets on the eject side.
type NI struct {
	Node NodeID

	injectQ [NumClasses]sim.Queue[*Packet]
	nextSeq [NumClasses]int
	out     OutPort // local port: writes straight into the router's input buffers

	eject   *sim.Pipe[Flit]
	ejectUp *OutPort // router output feeding eject; ejected flits return its credits

	deliver func(now sim.Cycle, p *Packet)
	stats   *Stats
	rr      int
}

// NewNI returns an unconnected network interface for node n.
func NewNI(n NodeID, stats *Stats) *NI {
	return &NI{Node: n, stats: stats, out: OutPort{pendAt: sim.NeverWake}}
}

// SetDeliver registers the packet delivery callback.
func (ni *NI) SetDeliver(fn func(now sim.Cycle, p *Packet)) { ni.deliver = fn }

// ConnectNI wires an NI to its router: the NI's inject side feeds router
// input port in (injDelay cycles of wire), and router output port out feeds
// the NI's eject side (router pipeline + ejDelay cycles). ejectBuf is the
// eject-side buffering per VC the router sees as credits.
func ConnectNI(ni *NI, r *Router, in, out int, injDelay, ejDelay sim.Cycle, ejectBuf int) {
	ConnectNIInject(ni, r, in, injDelay)
	ConnectNIEject(ni, r, out, ejDelay, ejectBuf)
}

// ConnectNIInject wires only the NI's inject side into router input port in.
func ConnectNIInject(ni *NI, r *Router, in int, injDelay sim.Cycle) {
	ni.out.connect(r.ins[in], injDelay, fmt.Sprintf("ni%d->%s", ni.Node, r.Name))
}

// ConnectNIEject wires only the NI's eject side to router output port out.
func ConnectNIEject(ni *NI, r *Router, out int, ejDelay sim.Cycle, ejectBuf int) {
	if ejectBuf < 1 {
		ejectBuf = 1
	}
	ej := sim.NewPipe[Flit](fmt.Sprintf("%s->ni%d", r.Name, ni.Node), r.PipeDelay+ejDelay)
	op := r.outs[out]
	op.link = ej
	for c := range op.credits {
		op.credits[c] = ejectBuf
	}
	ni.eject = ej
	ni.ejectUp = op
}

// Send enqueues a packet for injection. The inject queue is unbounded; real
// back-pressure comes from the protocol agents' MSHR limits.
func (ni *NI) Send(now sim.Cycle, p *Packet) {
	p.InjectedAt = now
	if ni.stats != nil {
		ni.stats.Injected++
	}
	ni.injectQ[p.Class].Push(p)
}

// Pending returns the number of packets waiting or partially injected.
func (ni *NI) Pending() int {
	n := 0
	for c := range ni.injectQ {
		n += ni.injectQ[c].Len()
	}
	return n
}

// Tick drains ejected flits, then injects at most one flit.
func (ni *NI) Tick(now sim.Cycle) {
	if ni.eject != nil {
		for {
			f, ok := ni.eject.Pop(now)
			if !ok {
				break
			}
			ni.ejectUp.returnCredit(now, f.Pkt.Class)
			p := f.Pkt
			p.arrived++
			if p.arrived == p.Size {
				p.DeliveredAt = now
				if ni.stats != nil {
					ni.stats.RecordDelivery(p)
				}
				if ni.deliver == nil {
					panic(fmt.Sprintf("noc: node %d has no delivery callback", ni.Node))
				}
				ni.deliver(now, p)
			}
		}
	}
	ni.inject(now)
}

// BindWaker implements sim.WakeBinder: the inject queues and the eject
// pipe become wake sources. Inject-side credit returns are not wake events
// for the same reason as the router's (they enable no work while the
// inject queues are empty, and a non-empty inject queue keeps the NI
// awake). The NI must be fully connected before registration.
func (ni *NI) BindWaker(w sim.Waker) {
	for c := range ni.injectQ {
		ni.injectQ[c].SetWaker(w)
	}
	if ni.eject != nil {
		ni.eject.SetWaker(w)
	}
}

// NextWake implements sim.Sleeper: awake every cycle while packets wait to
// inject (injection may be credit-gated, and credits are not wake
// sources), asleep until the next in-flight ejecting flit otherwise.
func (ni *NI) NextWake(now sim.Cycle) sim.Cycle {
	for c := range ni.injectQ {
		if ni.injectQ[c].Len() > 0 {
			return now + 1
		}
	}
	if ni.eject != nil {
		if at, ok := ni.eject.NextAt(); ok {
			return at
		}
	}
	return sim.NeverWake
}

// inject sends at most one flit through the local port, rotating across
// classes for fairness.
func (ni *NI) inject(now sim.Cycle) {
	if ni.out.dst == nil {
		return
	}
	ni.out.settle(now)
	for k := 0; k < NumClasses; k++ {
		c := Class((ni.rr + k) % NumClasses)
		p, ok := ni.injectQ[c].Peek()
		if !ok || ni.out.credits[c] <= 0 {
			continue
		}
		seq := ni.nextSeq[c]
		ni.out.send(now, Flit{Pkt: p, Seq: seq})
		ni.out.credits[c]--
		if ni.stats != nil {
			ni.stats.InjectFlits++
		}
		if seq == p.Size-1 {
			ni.injectQ[c].Pop()
			ni.nextSeq[c] = 0
		} else {
			ni.nextSeq[c] = seq + 1
		}
		ni.rr = (int(c) + 1) % NumClasses
		return
	}
}

// RouterNetwork is a generic network built from Routers and NIs; the
// concrete topologies (mesh, flattened butterfly, NOC-Out's LLC network)
// are constructed by the topo and core packages.
type RouterNetwork struct {
	Name    string
	Routers []*Router
	NIs     []*NI // indexed by NodeID; entries may be nil for internal nodes
	stats   Stats
}

// NewRouterNetwork returns an empty network shell with n NI slots.
func NewRouterNetwork(name string, n int) *RouterNetwork {
	return &RouterNetwork{Name: name, NIs: make([]*NI, n)}
}

// StatsRef returns the shared counters for builders to hand to NIs.
func (rn *RouterNetwork) StatsRef() *Stats { return &rn.stats }

// RN exposes the underlying router network; wrappers (NOC-Out's Network)
// forward it so the checkpoint code can reach the fabric behind any
// noc.Network implementation that has one.
func (rn *RouterNetwork) RN() *RouterNetwork { return rn }

// Stats implements Network. It folds the routers' local accounting into
// the shared counters first, so callers always see up-to-date totals;
// callers that reset the counters with *Stats() = Stats{} therefore
// discard exactly the activity up to this call.
func (rn *RouterNetwork) Stats() *Stats {
	rn.fold()
	return &rn.stats
}

// fold drains the routers' local flit/link counters into rn.stats in
// router order. FlitLinkMM is a float sum, so the fixed order keeps it
// independent of the order in which routers tick.
func (rn *RouterNetwork) fold() {
	for _, r := range rn.Routers {
		r.foldInto(&rn.stats)
	}
}

// Send implements Network.
func (rn *RouterNetwork) Send(now sim.Cycle, p *Packet) {
	ni := rn.NIs[p.Src]
	if ni == nil {
		panic(fmt.Sprintf("noc: %s: node %d has no NI", rn.Name, p.Src))
	}
	ni.Send(now, p)
}

// SetDeliver implements Network.
func (rn *RouterNetwork) SetDeliver(n NodeID, fn func(now sim.Cycle, p *Packet)) {
	if rn.NIs[n] == nil {
		panic(fmt.Sprintf("noc: %s: node %d has no NI", rn.Name, n))
	}
	rn.NIs[n].SetDeliver(fn)
}

// Tick advances all routers then all NIs by one cycle. Because every
// flit and credit becomes visible at a strictly later cycle, the relative
// order is immaterial.
func (rn *RouterNetwork) Tick(now sim.Cycle) {
	for _, r := range rn.Routers {
		r.Tick(now)
	}
	for _, ni := range rn.NIs {
		if ni != nil {
			ni.Tick(now)
		}
	}
}

// RegisterInto implements sim.Registrar: instead of ticking the whole
// network as one component, every router and NI registers individually (in
// the same order whole-network ticking uses, so results are unchanged) and
// becomes an independent sleeper — quiescent regions of the fabric drop
// out of the simulation loop entirely. The network must be fully built
// before registration: links wired afterwards would miss their wakers.
func (rn *RouterNetwork) RegisterInto(e *sim.Engine) {
	for _, r := range rn.Routers {
		e.Register(r)
	}
	for _, ni := range rn.NIs {
		if ni != nil {
			e.Register(ni)
		}
	}
}

var _ Network = (*RouterNetwork)(nil)
var _ sim.Registrar = (*RouterNetwork)(nil)
var _ sim.Sleeper = (*Router)(nil)
var _ sim.Sleeper = (*NI)(nil)
