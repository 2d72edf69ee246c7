// Package noc implements the on-chip network substrate shared by every
// interconnect in this repository: flits, packets, virtual channels,
// credit-based flow control, a parameterized wormhole router, and network
// interfaces.
//
// The model follows the paper's evaluation setup (§5.1): wormhole switching
// with one virtual channel per message class (data requests, snoop requests,
// responses) for protocol deadlock freedom, credit-based flow control, and a
// per-hop latency budget expressed as router-pipeline + link cycles with one
// flit per cycle per port of throughput.
package noc

import (
	"fmt"

	"nocout/internal/sim"
)

// NodeID identifies a network endpoint (a tile's network interface).
type NodeID int

// Class is a message class; each class travels in its own virtual channel.
type Class uint8

// The three message classes of the coherence protocol (§4.1).
const (
	ClassReq   Class = iota // data requests (cores -> LLC, LLC -> memory)
	ClassSnoop              // snoop requests (directory -> cores)
	ClassResp               // data and snoop responses
	NumClasses = 3
)

// String returns a short class mnemonic.
func (c Class) String() string {
	switch c {
	case ClassReq:
		return "req"
	case ClassSnoop:
		return "snoop"
	case ClassResp:
		return "resp"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Packet is the unit of transfer seen by protocol agents. The network moves
// it as Size flits using wormhole switching.
type Packet struct {
	ID      uint64
	Class   Class
	Src     NodeID
	Dst     NodeID
	Size    int // flits
	Payload any

	// Timing bookkeeping, maintained by the network.
	InjectedAt  sim.Cycle // when Send was called
	DeliveredAt sim.Cycle // when the tail flit reached the destination NI

	hops    int // router traversals, for diagnostics/energy
	arrived int // flits received at destination, for reassembly
}

// Hops returns the number of router/tree-node traversals the packet made.
func (p *Packet) Hops() int { return p.hops }

// Latency returns the end-to-end packet latency in cycles (tail delivery),
// valid after delivery.
func (p *Packet) Latency() sim.Cycle { return p.DeliveredAt - p.InjectedAt }

// Flit is one link-width slice of a packet.
type Flit struct {
	Pkt *Packet
	Seq int
}

// Head reports whether this is the packet's head flit.
func (f Flit) Head() bool { return f.Seq == 0 }

// Tail reports whether this is the packet's tail flit.
func (f Flit) Tail() bool { return f.Seq == f.Pkt.Size-1 }

// FlitsFor returns the number of flits needed to carry bytes of payload plus
// an 8-byte header on a link of width linkBits. This is where Figure 9's
// serialization-latency effect comes from: narrower links mean more flits
// per packet.
func FlitsFor(payloadBytes int, linkBits int) int {
	if linkBits < 8 {
		panic("noc: link narrower than 8 bits")
	}
	totalBits := (payloadBytes + headerBytes) * 8
	n := (totalBits + linkBits - 1) / linkBits
	if n < 1 {
		n = 1
	}
	return n
}

// headerBytes is the packet header overhead carried by the head flit.
const headerBytes = 8

// Network is the interface every interconnect organization implements
// (mesh, flattened butterfly, ideal, NOC-Out).
type Network interface {
	sim.Ticker
	// Send injects a packet at its source NI at the current cycle.
	Send(now sim.Cycle, p *Packet)
	// SetDeliver registers the packet-delivery callback for a node.
	SetDeliver(n NodeID, fn func(now sim.Cycle, p *Packet))
	// Stats exposes the shared traffic/latency counters.
	Stats() *Stats
}

// Stats aggregates network activity for performance and energy reporting.
type Stats struct {
	Injected  int64
	Delivered int64

	LatencySum [NumClasses]int64 // cycles, per class
	Count      [NumClasses]int64

	FlitHops    int64   // flit × router traversals (buffer write+read+switch)
	FlitLinkMM  float64 // flit × mm of link traversed
	PacketHops  int64   // packet × router traversals
	InjectFlits int64
}

// RecordDelivery folds a delivered packet into the counters.
func (s *Stats) RecordDelivery(p *Packet) {
	s.Delivered++
	s.LatencySum[p.Class] += int64(p.Latency())
	s.Count[p.Class]++
	s.PacketHops += int64(p.hops)
}

// AvgLatency returns the mean end-to-end latency of class c in cycles.
func (s *Stats) AvgLatency(c Class) float64 {
	if s.Count[c] == 0 {
		return 0
	}
	return float64(s.LatencySum[c]) / float64(s.Count[c])
}

// AvgLatencyAll returns the mean latency over all classes.
func (s *Stats) AvgLatencyAll() float64 {
	var sum, n int64
	for c := 0; c < NumClasses; c++ {
		sum += s.LatencySum[c]
		n += s.Count[c]
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
