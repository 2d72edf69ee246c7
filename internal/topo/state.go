package topo

import (
	"sort"

	"nocout/internal/ckpt"
	"nocout/internal/noc"
	"nocout/internal/sim"
)

// Checkpoint serialization of the ideal fabric: the delivery calendar
// (buckets of in-flight packets, in ascending delivery-cycle order so the
// encoding is independent of heap layout and map iteration) plus the
// traffic counters. The floorplan, delay function, and callbacks are
// structural.

// SaveState serializes the fabric's in-flight state; put encodes each
// packet's payload.
func (id *Ideal) SaveState(e *ckpt.Enc, _ sim.Cycle, put noc.PayloadEnc) {
	ats := make([]sim.Cycle, 0, len(id.buckets))
	for at := range id.buckets {
		ats = append(ats, at)
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	e.U64(uint64(len(ats)))
	prev := sim.Cycle(0)
	for _, at := range ats {
		b := id.buckets[at]
		e.I64(int64(at - prev))
		prev = at
		e.U64(uint64(len(b.pkts)))
		for _, p := range b.pkts {
			noc.EncodePacket(e, p, put)
		}
	}

	s := id.stats
	e.I64(s.Injected)
	e.I64(s.Delivered)
	for c := 0; c < noc.NumClasses; c++ {
		e.I64(s.LatencySum[c])
		e.I64(s.Count[c])
	}
	e.I64(s.FlitHops)
	e.F64(s.FlitLinkMM)
	e.I64(s.PacketHops)
	e.I64(s.InjectFlits)
}

// LoadState is the inverse of SaveState. The fabric must be freshly built
// over the donor's floorplan; no wakes are raised (the engine re-arms the
// fabric wholesale on restore).
func (id *Ideal) LoadState(d *ckpt.Dec, _ sim.Cycle, get noc.PayloadDec) {
	id.due.Clear()
	clear(id.buckets)
	n := d.Count()
	prev := sim.Cycle(0)
	for i := 0; i < n && d.Err() == nil; i++ {
		prev += sim.Cycle(d.I64())
		cnt := d.Count()
		if d.Err() != nil {
			return
		}
		if _, dup := id.buckets[prev]; dup {
			d.Corrupt("duplicate delivery bucket at cycle %d", prev)
			return
		}
		b := &delivBucket{at: prev, pkts: make([]*noc.Packet, 0, cnt)}
		for j := 0; j < cnt && d.Err() == nil; j++ {
			p := noc.DecodePacket(d, len(id.deliver), get)
			if p == nil {
				return
			}
			b.pkts = append(b.pkts, p)
		}
		id.buckets[prev] = b
		id.due.Push(b)
	}

	s := &id.stats
	s.Injected = d.I64()
	s.Delivered = d.I64()
	for c := 0; c < noc.NumClasses; c++ {
		s.LatencySum[c] = d.I64()
		s.Count[c] = d.I64()
	}
	s.FlitHops = d.I64()
	s.FlitLinkMM = d.F64()
	s.PacketHops = d.I64()
	s.InjectFlits = d.I64()
}
