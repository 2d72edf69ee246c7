package noc

import (
	"nocout/internal/ckpt"
	"nocout/internal/sim"
)

// Checkpoint serialization of the router network. Topology, wiring, and
// routing tables are structural; the state is every in-flight packet and
// flit, the VC buffers, credit counters, output-VC ownership, the NIs'
// inject/eject progress, and the folded traffic counters.
//
// Packets are shared by reference (a flit is a pointer into its packet),
// so serialization builds a packet table in one fixed traversal order and
// encodes every reference as a table index; restore rebuilds the table
// and re-links the same sharing structure. Payloads are opaque here (the
// protocol layer sits above noc), so callers supply the payload codec.
//
// Links: every flit link is serialized at its consumer (router input
// ports and NI eject sides), so each is written exactly once. A router
// input's buffers hold both its arrived flits and the flits on its link;
// the input is written as each VC's arrived flits, then the link in the
// shape of a flit pipe: a count, then one (delta-coded arrival cycle,
// flit) entry per flit in arrival order. "Arrived" is relative to the
// snapshot cycle. The credit wire of an output port (router outputs and
// NI inject sides) is serialized with the port, in the shape of a credit
// pipe: a count, then one (delta-coded delivery cycle, VC) entry per
// credit.

// PayloadEnc encodes one packet payload.
type PayloadEnc func(e *ckpt.Enc, payload any)

// PayloadDec decodes one packet payload.
type PayloadDec func(d *ckpt.Dec) any

// EncodePacket serializes one packet record: identity, transfer progress,
// and payload. Shared by the router network's packet table and by other
// Network implementations (topo.Ideal) that hold packets in flight.
func EncodePacket(e *ckpt.Enc, p *Packet, put PayloadEnc) {
	e.U64(p.ID)
	e.U64(uint64(p.Class))
	e.Int(int(p.Src))
	e.Int(int(p.Dst))
	e.Int(p.Size)
	e.I64(int64(p.InjectedAt))
	e.Int(p.hops)
	e.Int(p.arrived)
	put(e, p.Payload)
}

// DecodePacket is the inverse of EncodePacket; numNodes bounds the valid
// Src/Dst range so a corrupt record cannot index outside the fabric.
func DecodePacket(d *ckpt.Dec, numNodes int, get PayloadDec) *Packet {
	p := &Packet{
		ID:    d.U64(),
		Class: Class(d.U64()),
	}
	p.Src = NodeID(d.Int())
	p.Dst = NodeID(d.Int())
	p.Size = d.Int()
	p.InjectedAt = sim.Cycle(d.I64())
	p.hops = d.Int()
	p.arrived = d.Int()
	if d.Err() != nil {
		return nil
	}
	if p.Class >= NumClasses || p.Size < 1 ||
		p.Src < 0 || int(p.Src) >= numNodes || p.Dst < 0 || int(p.Dst) >= numNodes {
		d.Corrupt("invalid packet record (class %d, size %d, %d->%d)", p.Class, p.Size, p.Src, p.Dst)
		return nil
	}
	p.Payload = get(d)
	return p
}

type pktTable struct {
	idx  map[*Packet]int
	pkts []*Packet
}

func (t *pktTable) add(p *Packet) {
	if _, ok := t.idx[p]; !ok {
		t.idx[p] = len(t.pkts)
		t.pkts = append(t.pkts, p)
	}
}

func (t *pktTable) ref(e *ckpt.Enc, p *Packet) { e.U64(uint64(t.idx[p])) }

func (t *pktTable) deref(d *ckpt.Dec) *Packet {
	i := d.U64()
	if i >= uint64(len(t.pkts)) {
		d.Corrupt("packet index %d out of range (%d packets)", i, len(t.pkts))
		return nil
	}
	return t.pkts[i]
}

func (t *pktTable) putFlit(e *ckpt.Enc, f Flit) {
	t.ref(e, f.Pkt)
	e.Int(f.Seq)
}

func (t *pktTable) getFlit(d *ckpt.Dec) Flit {
	p := t.deref(d)
	seq := d.Int()
	if p != nil && (seq < 0 || seq >= p.Size) {
		d.Corrupt("flit seq %d out of range for %d-flit packet", seq, p.Size)
	}
	return Flit{Pkt: p, Seq: seq}
}

// saveCredits writes the port's pending credits as credit-pipe entries.
func (op *OutPort) saveCredits(e *ckpt.Enc) {
	n := 0
	for _, k := range op.pend {
		n += k
	}
	e.U64(uint64(n))
	prev := sim.Cycle(0)
	for c, k := range op.pend {
		for ; k > 0; k-- {
			e.I64(int64(op.pendAt - prev))
			prev = op.pendAt
			e.U64(uint64(c))
		}
	}
}

// loadCredits reads credit-pipe entries into the wire. Entries must come
// in delivery order; those due before the last delivery cycle were
// already deliverable at the snapshot, so they fold straight into
// credits and only the last cycle's batch stays pending.
func (op *OutPort) loadCredits(d *ckpt.Dec) {
	n := d.Count()
	op.pend = [NumClasses]int{}
	op.pendAt = sim.NeverWake
	prev := sim.Cycle(0)
	for i := 0; i < n && d.Err() == nil; i++ {
		at := prev + sim.Cycle(d.I64())
		vc := d.U64()
		if vc >= NumClasses {
			d.Corrupt("credit VC %d out of range", vc)
			return
		}
		if at < prev {
			d.Corrupt("credit delivery cycle %d precedes %d", at, prev)
			return
		}
		if at > prev {
			op.settle(at - 1) // the earlier batch was due before at
		}
		op.pend[vc]++
		op.pendAt = at
		prev = at
	}
}

// eachOnLink calls fn for every flit on the port's input link at cycle
// now — the not-yet-arrived tails of the VC rings — in arrival order.
// One link carries at most one flit per cycle, so the arrival cycles of
// the merged tails are distinct.
func (ip *InPort) eachOnLink(now sim.Cycle, fn func(at sim.Cycle, f Flit)) {
	var next [NumClasses]int
	for c := range ip.vcs {
		next[c] = ip.vcs[c].arrived(now)
	}
	for {
		best, bestAt := -1, sim.Cycle(0)
		for c := range ip.vcs {
			if q := &ip.vcs[c]; next[c] < q.n {
				if at := q.entry(next[c]).at; best < 0 || at < bestAt {
					best, bestAt = c, at
				}
			}
		}
		if best < 0 {
			return
		}
		fn(bestAt, ip.vcs[best].entry(next[best]).f)
		next[best]++
	}
}

// saveLink writes the flits on the port's input link at cycle now in
// flit-pipe shape.
func (ip *InPort) saveLink(e *ckpt.Enc, now sim.Cycle, put func(e *ckpt.Enc, f Flit)) {
	n := 0
	for c := range ip.vcs {
		n += ip.vcs[c].n - ip.vcs[c].arrived(now)
	}
	e.U64(uint64(n))
	prev := sim.Cycle(0)
	ip.eachOnLink(now, func(at sim.Cycle, f Flit) {
		e.I64(int64(at - prev))
		prev = at
		put(e, f)
	})
}

// loadLink reads a flit-pipe-shaped link section back into the VC
// buffers behind their arrived flits. Arrival cycles must be strictly
// increasing and after the snapshot cycle now, and a VC's buffered plus
// in-flight flits must fit its buffer, as the credit protocol guarantees.
func (ip *InPort) loadLink(d *ckpt.Dec, now sim.Cycle, get func(d *ckpt.Dec) Flit) {
	n := d.Count()
	prev, last := sim.Cycle(0), now
	for i := 0; i < n && d.Err() == nil; i++ {
		prev += sim.Cycle(d.I64())
		f := get(d)
		if d.Err() != nil {
			return
		}
		if prev <= last {
			d.Corrupt("%s input %s: link arrival cycle %d is not after %d", ip.r.Name, ip.name, prev, last)
			return
		}
		last = prev
		q := &ip.vcs[f.Pkt.Class]
		if q.n == len(q.buf) {
			d.Corrupt("%s input %s VC %v: link flits overflow the %d-flit buffer", ip.r.Name, ip.name, f.Pkt.Class, len(q.buf))
			return
		}
		q.push(f, prev)
	}
}

// forEachPacket walks every live packet reference in the fixed traversal
// order the codec relies on; now is the snapshot cycle.
func (rn *RouterNetwork) forEachPacket(now sim.Cycle, visit func(p *Packet)) {
	for _, ni := range rn.NIs {
		if ni == nil {
			continue
		}
		for c := range ni.injectQ {
			ni.injectQ[c].Each(func(p *Packet) { visit(p) })
		}
		if ni.eject != nil {
			ni.eject.Each(func(_ sim.Cycle, f Flit) { visit(f.Pkt) })
		}
	}
	for _, r := range rn.Routers {
		for _, ip := range r.ins {
			for c := range ip.vcs {
				q := &ip.vcs[c]
				for i := range q.arrived(now) {
					visit(q.entry(i).f.Pkt)
				}
			}
			ip.eachOnLink(now, func(_ sim.Cycle, f Flit) { visit(f.Pkt) })
		}
		for _, op := range r.outs {
			for c := range op.owner {
				if op.owner[c] != nil {
					visit(op.owner[c])
				}
			}
		}
	}
}

// SaveState implements the network's side of ckpt.Saver at snapshot
// cycle now; put encodes each packet's payload. The network's local
// accounting is folded into the shared Stats first, so per-router/per-port
// deltas are zero at the snapshot and only the folded totals travel.
func (rn *RouterNetwork) SaveState(e *ckpt.Enc, now sim.Cycle, put PayloadEnc) {
	rn.fold()
	t := &pktTable{idx: make(map[*Packet]int)}
	rn.forEachPacket(now, t.add)

	e.U64(uint64(len(t.pkts)))
	for _, p := range t.pkts {
		EncodePacket(e, p, put)
	}

	for _, ni := range rn.NIs {
		if ni == nil {
			continue
		}
		for c := range ni.injectQ {
			ni.injectQ[c].SaveState(e, func(e *ckpt.Enc, p *Packet) { t.ref(e, p) })
			e.Int(ni.nextSeq[c])
		}
		e.Int(ni.rr)
		for c := range ni.out.credits {
			e.Int(ni.out.credits[c])
		}
		if ni.out.connected() {
			ni.out.saveCredits(e)
		}
		if ni.eject != nil {
			ni.eject.SaveState(e, t.putFlit)
		}
	}

	for _, r := range rn.Routers {
		e.I64(r.flits)
		for _, ip := range r.ins {
			for c := range ip.vcs {
				q := &ip.vcs[c]
				k := q.arrived(now)
				e.U64(uint64(k))
				for i := range k {
					t.putFlit(e, q.entry(i).f)
				}
			}
			if ip.up != nil {
				ip.saveLink(e, now, t.putFlit)
			}
		}
		for _, op := range r.outs {
			for c := range op.credits {
				e.Int(op.credits[c])
			}
			for c := range op.owner {
				if op.owner[c] == nil {
					e.Bool(false)
				} else {
					e.Bool(true)
					t.ref(e, op.owner[c])
				}
			}
			e.I64(op.sent)
			if op.connected() {
				op.saveCredits(e)
			}
		}
	}

	s := &rn.stats
	e.I64(s.Injected)
	e.I64(s.Delivered)
	for c := 0; c < NumClasses; c++ {
		e.I64(s.LatencySum[c])
		e.I64(s.Count[c])
	}
	e.I64(s.FlitHops)
	e.F64(s.FlitLinkMM)
	e.I64(s.PacketHops)
	e.I64(s.InjectFlits)
}

// LoadState is the inverse of SaveState for a snapshot taken at cycle
// now; get decodes each payload. The network must be freshly built with
// the donor's topology. Buffered flits are restored as arrived at now.
func (rn *RouterNetwork) LoadState(d *ckpt.Dec, now sim.Cycle, get PayloadDec) {
	n := d.Count()
	if d.Err() != nil {
		return
	}
	t := &pktTable{idx: make(map[*Packet]int), pkts: make([]*Packet, 0, n)}
	for i := 0; i < n && d.Err() == nil; i++ {
		p := DecodePacket(d, len(rn.NIs), get)
		if p == nil {
			return
		}
		t.pkts = append(t.pkts, p)
	}
	if d.Err() != nil {
		return
	}

	for _, ni := range rn.NIs {
		if ni == nil {
			continue
		}
		for c := range ni.injectQ {
			ni.injectQ[c].LoadState(d, func(d *ckpt.Dec) *Packet { return t.deref(d) })
			ni.nextSeq[c] = d.Int()
		}
		ni.rr = d.Int()
		for c := range ni.out.credits {
			ni.out.credits[c] = d.Int()
		}
		if ni.out.connected() {
			ni.out.loadCredits(d)
		}
		if ni.eject != nil {
			ni.eject.LoadState(d, t.getFlit)
		}
		if d.Err() != nil {
			return
		}
	}

	for _, r := range rn.Routers {
		r.flits = d.I64()
		r.flitsFolded = r.flits
		for _, ip := range r.ins {
			for c := range ip.vcs {
				q := &ip.vcs[c]
				cnt := d.Count()
				if d.Err() != nil {
					return
				}
				if cnt > len(q.buf) {
					d.Corrupt("VC occupancy %d exceeds buffer capacity %d", cnt, len(q.buf))
					return
				}
				q.reset()
				for range cnt {
					q.push(t.getFlit(d), now)
				}
			}
			if ip.up != nil {
				ip.loadLink(d, now, t.getFlit)
			}
		}
		for _, op := range r.outs {
			for c := range op.credits {
				op.credits[c] = d.Int()
			}
			for c := range op.owner {
				if d.Bool() {
					op.owner[c] = t.deref(d)
				} else {
					op.owner[c] = nil
				}
			}
			op.sent = d.I64()
			op.sentFolded = op.sent
			if op.connected() {
				op.loadCredits(d)
			}
		}
		if d.Err() != nil {
			return
		}
	}

	s := &rn.stats
	s.Injected = d.I64()
	s.Delivered = d.I64()
	for c := 0; c < NumClasses; c++ {
		s.LatencySum[c] = d.I64()
		s.Count[c] = d.I64()
	}
	s.FlitHops = d.I64()
	s.FlitLinkMM = d.F64()
	s.PacketHops = d.I64()
	s.InjectFlits = d.I64()
}
