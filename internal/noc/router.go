package noc

import (
	"fmt"
	"math/bits"

	"nocout/internal/sim"
)

// RouteFunc selects the output-port index a packet should take from a
// router. It must be a pure function of the packet's destination: each
// router memoizes the first result per destination.
type RouteFunc func(p *Packet) int

// HeadRoomFunc returns the minimum downstream credits a head flit needs to
// claim output port out from input port in for a packet of the given size
// (flits). Values below 1 mean the default of 1. Ring topologies use this
// for bubble flow control: a packet continuing within a ring advances only
// when the whole packet fits downstream (virtual cut-through), and a packet
// entering a ring must additionally leave a maximum-packet bubble, so the
// ring's channel-dependency cycle can never fill up and deadlock.
type HeadRoomFunc func(in, out, size int) int

// Cand names one (input port, virtual channel) pair; used to express static
// arbitration priorities for NOC-Out tree nodes (§4.1: network responses >
// local responses > network requests > local requests).
type Cand struct {
	Port int
	VC   Class
}

// Router is a wormhole virtual-channel router with credit-based flow
// control. Its per-hop latency contribution is PipeDelay cycles, added to
// the downstream link's delay at Connect time; throughput is one flit per
// cycle per port.
//
// Links carry no state of their own. A sender spends a credit only when
// the downstream VC buffer has a free slot, so a flit that wins the
// switch is written straight into that slot, stamped with the cycle it
// arrives (now + pipeline + link delay). Until then the slot is the
// wire: allocation passes over a front flit that has not arrived.
//
// The same type models all router flavours in the paper:
//   - mesh routers: 5 in / 5 out, 2-cycle speculative pipeline
//   - flattened-butterfly routers: 15 in / 15 out, 3-cycle pipeline
//   - NOC-Out LLC routers: 3-cycle pipeline with extra tree ports
//   - reduction/dispersion tree nodes: 2 in / 1 out (or 1 in / 2 out),
//     zero-cycle pipeline with 1-cycle links and static priority
type Router struct {
	ID        NodeID
	Name      string
	PipeDelay sim.Cycle

	ins      []*InPort
	outs     []*OutPort
	route    RouteFunc
	routes   []int32 // memoized route per destination; -1 = not yet computed
	prio     []Cand  // static arbitration order; nil means round-robin
	numVCs   int     // implemented VCs (area accounting); 0 = NumClasses
	flits    int64   // flits routed through this router (energy accounting)
	headRoom HeadRoomFunc

	// occ has bit port*vcStride+vc set while that VC buffer holds a flit,
	// arrived or still on the link; the buffers maintain it themselves
	// (flitRing.occ).
	occ []uint64

	// flitsFolded marks how much of flits has been drained into the
	// network-wide Stats; see RouterNetwork.fold. Hot-path accounting is
	// strictly router-local, so totals do not depend on tick order.
	flitsFolded int64

	inUsed, outUsed []bool // per-cycle allocation scratch, sized to the radix
}

// NewRouter returns a router with no ports. Ports are added with AddIn /
// AddOut and wired with Connect / ConnectNI.
func NewRouter(id NodeID, name string, pipeDelay sim.Cycle, route RouteFunc) *Router {
	return &Router{ID: id, Name: name, PipeDelay: pipeDelay, route: route}
}

// SetPriority installs a static arbitration order (highest first) covering
// every (port, class) pair that can hold traffic. Pairs not listed never win
// arbitration, so the list must be exhaustive for the router's traffic.
func (r *Router) SetPriority(order []Cand) { r.prio = order }

// SetRoute replaces the routing function (used by builders that need the
// router allocated before the topology-wide tables exist).
func (r *Router) SetRoute(f RouteFunc) { r.route, r.routes = f, nil }

// SetHeadRoom installs a head-flit credit-threshold policy (see
// HeadRoomFunc). Body flits are unaffected: once a head wins its output VC
// the packet's remaining credits are reserved by VC ownership.
func (r *Router) SetHeadRoom(f HeadRoomFunc) { r.headRoom = f }

// SetOutLength records the physical length of output link out for the area
// (repeaters) and energy (fJ/bit/mm) models, for links wired through
// ConnectNI which carries no length (the crossbar's die-spanning spokes).
func (r *Router) SetOutLength(out int, lengthMM float64) {
	r.outs[out].lengthMM = lengthMM
}

// NumIn returns the number of input ports.
func (r *Router) NumIn() int { return len(r.ins) }

// NumOut returns the number of output ports.
func (r *Router) NumOut() int { return len(r.outs) }

// InPort is a router input with one FIFO buffer per virtual channel. The
// buffers also hold the flits on the input link (see Router).
type InPort struct {
	name  string
	cap   int // flits per VC
	vcs   [NumClasses]flitRing
	up    *OutPort  // upstream sender whose credits this buffer returns; nil while unconnected
	waker sim.Waker // the owning router's wake handle, armed by sends into empty rings
	r     *Router   // owning router, named by the overflow panic
}

// vcStride is the number of occupancy bits reserved per input port, a
// power of two so a bit splits into (port, VC) with a shift and a mask.
const vcStride = 4

var _ [vcStride - NumClasses]struct{} // NumClasses must fit in vcStride

// slot is one VC buffer entry: a flit and the cycle it arrives. Before
// that cycle the flit is on the link.
type slot struct {
	f  Flit
	at sim.Cycle
}

// flitRing is a fixed-capacity flit FIFO. The credit protocol bounds a
// VC's buffered plus in-flight flits at the port capacity, so the buffer
// is allocated once (at wiring) and reused forever. A link delivers one
// flit per cycle in order, so arrival cycles increase along the ring and
// the entries that have arrived are always a prefix.
//
// Each ring owns one bit of its router's occupancy mask (occ, bit) and
// keeps it equal to "non-empty".
type flitRing struct {
	buf  []slot
	head int
	n    int
	occ  *uint64
	bit  uint64

	// pkt and out cache the route of the packet leaving the ring. A VC
	// carries a packet's flits contiguously, so body flits reuse the
	// head's route; the tail clears pkt before the packet can be
	// delivered and recycled.
	pkt *Packet
	out int
}

// entry returns the i-th entry from the front.
func (q *flitRing) entry(i int) *slot {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

func (q *flitRing) front() *slot { return &q.buf[q.head] }

func (q *flitRing) push(f Flit, at sim.Cycle) {
	*q.entry(q.n) = slot{f, at}
	q.n++
	*q.occ |= q.bit
}

func (q *flitRing) pop() {
	q.buf[q.head] = slot{} // drop the packet reference for GC
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	if q.n--; q.n == 0 {
		*q.occ &^= q.bit
	}
}

// arrived returns how many entries have arrived by cycle now; the rest
// are still on the link.
func (q *flitRing) arrived(now sim.Cycle) int {
	i := 0
	for i < q.n && q.entry(i).at <= now {
		i++
	}
	return i
}

// reset empties the ring.
func (q *flitRing) reset() {
	clear(q.buf)
	q.head, q.n, q.pkt = 0, 0, nil
	*q.occ &^= q.bit
}

// OutPort is a router output: a link to a downstream input port (or, on
// the eject side, a pipe to an NI) plus downstream credit state.
//
// Credits return over a one-cycle wire: the downstream buffer adds each
// freed slot to pend, due at pendAt (the cycle after the return), and the
// port folds pend into credits lazily, when it next reads credits at or
// after pendAt. Every return in one cycle shares the same due cycle, and
// a return first settles the older batch, so at most one batch pends.
type OutPort struct {
	name     string
	dst      *InPort         // downstream router input; nil for the eject side
	delay    sim.Cycle       // cycles from send to arrival at dst
	link     *sim.Pipe[Flit] // eject side only: the pipe to the NI
	credits  [NumClasses]int
	pend     [NumClasses]int
	pendAt   sim.Cycle // due cycle of pend; NeverWake when nothing pends
	owner    [NumClasses]*Packet
	lengthMM float64

	// sent counts flits pushed onto this link; sentFolded marks how much
	// has been drained into Stats.FlitLinkMM. Folding computes
	// lengthMM * Δsent in a fixed port order, so the floating-point sum is
	// a pure function of flit movement — identical across kernels — rather
	// than of the order in which routers update a shared counter.
	sent, sentFolded int64
}

// AddIn appends an input port with the given per-VC buffer capacity and
// returns its index.
func (r *Router) AddIn(name string, capacity int) int {
	if capacity < 1 {
		panic("noc: input buffer capacity must be >= 1")
	}
	ip := &InPort{name: name, cap: capacity, r: r}
	slab := make([]slot, NumClasses*capacity)
	for c := range ip.vcs {
		ip.vcs[c].buf = slab[c*capacity : (c+1)*capacity : (c+1)*capacity]
	}
	r.ins = append(r.ins, ip)
	if w := (len(r.ins)*vcStride + 63) / 64; w > len(r.occ) {
		r.occ = append(r.occ, 0)
	}
	// Growing occ may move it; re-point every buffer at its bit.
	for i, ip := range r.ins {
		for c := range ip.vcs {
			b := i*vcStride + c
			ip.vcs[c].occ, ip.vcs[c].bit = &r.occ[b/64], 1<<(b%64)
		}
	}
	return len(r.ins) - 1
}

// AddOut appends an output port and returns its index.
func (r *Router) AddOut(name string) int {
	r.outs = append(r.outs, &OutPort{name: name, pendAt: sim.NeverWake})
	return len(r.outs) - 1
}

// connected reports whether the port has been wired to a receiver.
func (op *OutPort) connected() bool { return op.dst != nil || op.link != nil }

// connect wires the port to input ip with the given send-to-arrival
// delay and fills the credits with ip's buffer capacity.
func (op *OutPort) connect(ip *InPort, delay sim.Cycle, name string) {
	if delay < 1 {
		panic("noc: link delay must be >= 1 cycle: " + name) // a same-cycle write would break tick-order independence
	}
	op.dst, op.delay = ip, delay
	for c := range op.credits {
		op.credits[c] = ip.cap
	}
	ip.up = op
}

// send puts f on the port's link at cycle now: straight into the
// downstream VC buffer, arriving at now+delay, or onto the eject pipe.
// The credit the sender spent reserved the buffer slot.
func (op *OutPort) send(now sim.Cycle, f Flit) {
	ip := op.dst
	if ip == nil {
		op.link.Push(now, f)
		return
	}
	q := &ip.vcs[f.Pkt.Class]
	if q.n == len(q.buf) {
		panic(fmt.Sprintf("noc: %s input %s VC %v overflow (credit protocol violated)", ip.r.Name, ip.name, f.Pkt.Class))
	}
	// Only a send into an empty ring needs to wake the router: otherwise
	// it is already armed for the ring's front, which arrives earlier.
	wake := q.n == 0 && ip.waker != nil
	at := now + op.delay
	q.push(f, at)
	if wake {
		ip.waker.Wake(at)
	}
}

// returnCredit sends one credit for class vc back over the wire at cycle
// now; the port sees it from now+1.
func (op *OutPort) returnCredit(now sim.Cycle, vc Class) {
	op.settle(now)
	op.pend[vc]++
	op.pendAt = now + 1
}

// settle folds the pending credits into credits once they are due.
func (op *OutPort) settle(now sim.Cycle) {
	if op.pendAt <= now {
		for c := range op.pend {
			op.credits[c] += op.pend[c]
			op.pend[c] = 0
		}
		op.pendAt = sim.NeverWake
	}
}

// SetVCCount records how many virtual channels the router actually
// implements (the paper's tree nodes need only two, §4.1); it affects only
// the area accounting, not simulation behaviour.
func (r *Router) SetVCCount(n int) { r.numVCs = n }

// VCCount returns the implemented VC count (default: one per class).
func (r *Router) VCCount() int {
	if r.numVCs > 0 {
		return r.numVCs
	}
	return NumClasses
}

// BufferFlits returns the router's total input buffering in flits, used by
// the area model.
func (r *Router) BufferFlits() int {
	n := 0
	for _, in := range r.ins {
		n += in.cap * r.VCCount()
	}
	return n
}

// FlitsRouted returns the number of flits this router has switched, for
// per-router energy accounting.
func (r *Router) FlitsRouted() int64 { return r.flits }

// foldInto drains the router's hot-path accounting deltas into the
// network-wide counters. Only RouterNetwork.fold calls it, always in
// router order and never while the router is being ticked.
func (r *Router) foldInto(s *Stats) {
	s.FlitHops += r.flits - r.flitsFolded
	r.flitsFolded = r.flits
	for _, op := range r.outs {
		if d := op.sent - op.sentFolded; d != 0 {
			s.FlitLinkMM += op.lengthMM * float64(d)
			op.sentFolded = op.sent
		}
	}
}

// OutLinkLengthsMM returns the physical length of every connected output
// link, for the area (repeaters) and energy (wire fJ/bit/mm) models.
func (r *Router) OutLinkLengthsMM() []float64 {
	var out []float64
	for _, op := range r.outs {
		if op.connected() {
			out = append(out, op.lengthMM)
		}
	}
	return out
}

// Connect wires output out of router a to input in of router b with the
// given link delay (cycles) and physical length (mm, for energy/area
// accounting). A flit sent at cycle t arrives at t + a.PipeDelay +
// linkDelay; credits return upstream in one cycle.
func Connect(a *Router, out int, b *Router, in int, linkDelay sim.Cycle, lengthMM float64) {
	op := a.outs[out]
	op.connect(b.ins[in], a.PipeDelay+linkDelay,
		fmt.Sprintf("%s.%s->%s.%s", a.Name, op.name, b.Name, b.ins[in].name))
	op.lengthMM = lengthMM
}

// BindWaker implements sim.WakeBinder: a send into an empty input buffer
// re-arms the router for the flit's arrival, so a quiescent router wakes
// the moment traffic is on its way (a send behind a pending flit needs
// no wake: the router is armed for that flit already). Credit
// returns are deliberately not wake sources: a returned credit enables
// no work on its own, and the allocator folds due credits in whenever
// it reads them, giving it exactly the credit view the naive kernel
// would have.
func (r *Router) BindWaker(w sim.Waker) {
	for _, ip := range r.ins {
		ip.waker = w
	}
}

// NextWake implements sim.Sleeper. A router holding an arrived flit must
// keep arbitrating every cycle (it may be credit-blocked, and the blocking
// credit is not a wake source); otherwise it sleeps until the earliest
// flit on any input link arrives, and indefinitely (NeverWake) when its
// buffers are empty — sends are its wake sources. A ring's front is its
// earliest arrival, so only fronts are read.
func (r *Router) NextWake(now sim.Cycle) sim.Cycle {
	next := sim.NeverWake
	for wi, m := range r.occ {
		for m != 0 {
			b := wi*64 + bits.TrailingZeros64(m)
			m &= m - 1
			at := r.ins[b/vcStride].vcs[b%vcStride].front().at
			if at <= now+1 {
				return now + 1
			}
			next = min(next, at)
		}
	}
	return next
}

// occupied reports whether any input VC buffer holds a flit.
func (r *Router) occupied() bool {
	for _, w := range r.occ {
		if w != 0 {
			return true
		}
	}
	return false
}

// Tick performs one cycle of switch allocation: one flit per input and
// per output per cycle, packet-atomic per output VC, credit-gated.
// Returned credits are folded in lazily, when allocation reads an
// output's credits.
func (r *Router) Tick(now sim.Cycle) {
	if !r.occupied() {
		return
	}
	// The scratch masks are sized to the actual radix (the central
	// crossbar has a port per tile; a mesh router has at most 9).
	if len(r.inUsed) != len(r.ins) {
		r.inUsed = make([]bool, len(r.ins))
	} else {
		clear(r.inUsed)
	}
	if len(r.outUsed) != len(r.outs) {
		r.outUsed = make([]bool, len(r.outs))
	} else {
		clear(r.outUsed)
	}
	if r.prio != nil {
		for _, cd := range r.prio {
			if b := cd.Port*vcStride + int(cd.VC); r.occ[b/64]&(1<<(b%64)) != 0 {
				r.grant(now, cd.Port, cd.VC)
			}
		}
		return
	}
	// Rotating arbitration over every (port, VC) pair, port-major. The
	// rotation is a pure function of the clock (one position per cycle,
	// first tick at cycle 1 starting at 0), so a router that slept
	// through idle cycles arbitrates exactly as if it had been ticked
	// every cycle — a stateful pointer would diverge between the
	// scheduled and naive kernels. Only occupied buffers are visited:
	// set occupancy bits from the rotation start up, then from 0 to it.
	n := sim.Cycle(len(r.ins) * NumClasses)
	start := int(((now-1)%n + n) % n)
	start = start/NumClasses*vcStride + start%NumClasses
	sw := start / 64
	for wi := sw; wi < len(r.occ); wi++ {
		m := r.occ[wi]
		if wi == sw {
			m &^= 1<<(start%64) - 1
		}
		r.grantAll(now, wi, m)
	}
	for wi := 0; wi <= sw; wi++ {
		m := r.occ[wi]
		if wi == sw {
			m &= 1<<(start%64) - 1
		}
		r.grantAll(now, wi, m)
	}
}

// grantAll offers the buffers named by the set bits of occupancy word wi
// (masked to m) to the switch in ascending order. Grants only empty
// buffers already visited, so the snapshot m stays exact.
func (r *Router) grantAll(now sim.Cycle, wi int, m uint64) {
	for m != 0 {
		b := wi*64 + bits.TrailingZeros64(m)
		m &= m - 1
		r.grant(now, b/vcStride, Class(b%vcStride))
	}
}

// grant moves the head flit of input port in, VC vc, to its output if it
// has arrived, the input and output are free this cycle, packet
// atomicity allows it, and the downstream buffer has credit.
func (r *Router) grant(now sim.Cycle, in int, vc Class) {
	if r.inUsed[in] {
		return
	}
	ip := r.ins[in]
	q := &ip.vcs[vc]
	s := q.front()
	if s.at > now {
		return // still on the link
	}
	f := s.f
	if q.pkt != f.Pkt {
		q.pkt, q.out = f.Pkt, r.routeOf(f.Pkt)
	}
	out := q.out
	if r.outUsed[out] {
		return
	}
	op := r.outs[out]
	if !op.connected() {
		panic(fmt.Sprintf("noc: %s output %s not connected", r.Name, op.name))
	}
	// Packet atomicity: an output VC is owned by one packet from head
	// to tail.
	need := 1
	if own := op.owner[vc]; own != nil {
		if own != f.Pkt {
			return
		}
	} else {
		if !f.Head() {
			return // only a head flit may claim a free VC
		}
		if r.headRoom != nil {
			if n := r.headRoom(in, out, f.Pkt.Size); n > need {
				need = n
			}
		}
	}
	op.settle(now)
	if op.credits[vc] < need {
		return
	}
	// Grant.
	q.pop()
	op.credits[vc]--
	if f.Head() {
		op.owner[vc] = f.Pkt
		f.Pkt.hops++
	}
	if f.Tail() {
		op.owner[vc] = nil
		q.pkt = nil
	}
	op.send(now, f)
	if ip.up != nil {
		ip.up.returnCredit(now, vc)
	}
	r.flits++
	op.sent++
	r.inUsed[in] = true
	r.outUsed[out] = true
}

// routeOf returns the output port for p, computing the route function
// once per destination and checking the port on first computation.
func (r *Router) routeOf(p *Packet) int {
	d := int(p.Dst)
	if d >= 0 && d < len(r.routes) && r.routes[d] >= 0 {
		return int(r.routes[d])
	}
	out := r.route(p)
	if out < 0 || out >= len(r.outs) {
		panic(fmt.Sprintf("noc: %s route(%d->%d) = invalid port %d", r.Name, p.Src, p.Dst, out))
	}
	if d >= 0 {
		for len(r.routes) <= d {
			r.routes = append(r.routes, -1)
		}
		r.routes[d] = int32(out)
	}
	return out
}
