package noc

import (
	"nocout/internal/sim"
)

// This file provides the classic open-loop NoC evaluation harness:
// synthetic traffic injected at a controlled rate, measuring accepted
// throughput and average packet latency. It is how the load-latency
// behaviour of the fabrics is characterized independently of the full-chip
// protocol stack (and how the "networks are not congested" claim of §6.1
// is checked).

// Pattern produces one packet's endpoints and size; it is called once per
// injection. Implementations must be deterministic given the RNG.
type Pattern func(r *sim.RNG) (src, dst NodeID, size int)

// BilateralPattern returns the paper's core-to-cache pattern (§3): sources
// send single-flit requests to uniform-random sinks; sinks send
// respSize-flit responses to uniform-random sources. Requests and
// responses alternate 50/50.
func BilateralPattern(sources, sinks []NodeID, respSize int) Pattern {
	if len(sources) == 0 || len(sinks) == 0 {
		panic("noc: bilateral pattern needs sources and sinks")
	}
	return func(r *sim.RNG) (NodeID, NodeID, int) {
		if r.Bool(0.5) {
			return sources[r.Intn(len(sources))], sinks[r.Intn(len(sinks))], 1
		}
		return sinks[r.Intn(len(sinks))], sources[r.Intn(len(sources))], respSize
	}
}

// LoadPoint is one point of a load-latency sweep.
type LoadPoint struct {
	OfferedPktPerCycle  float64
	AcceptedPktPerCycle float64
	AvgLatency          float64 // cycles, all classes
	Saturated           bool    // accepted lagged offered by >10%
}

// MeasureLoad injects pattern traffic at rate packets/cycle (network-wide)
// for warmup+window cycles and reports the steady-state behaviour over the
// window. nodes lists every endpoint the pattern can target (they get sink
// delivery callbacks). Packets travel in the request class for single-flit
// sizes and the response class otherwise, matching the protocol's usage.
func MeasureLoad(net Network, nodes []NodeID, pattern Pattern, rate float64, warmup, window sim.Cycle, seed uint64) LoadPoint {
	e := sim.NewEngine()
	e.Register(net)
	for _, n := range nodes {
		net.SetDeliver(n, func(now sim.Cycle, p *Packet) {})
	}
	rng := sim.NewRNG(seed)
	var id uint64
	carry := 0.0
	injector := sim.TickFunc(func(now sim.Cycle) {
		carry += rate
		for carry >= 1 {
			carry--
			src, dst, size := pattern(rng)
			class := ClassReq
			if size > 1 {
				class = ClassResp
			}
			id++
			net.Send(now, &Packet{ID: id, Class: class, Src: src, Dst: dst, Size: size})
		}
	})
	e.Register(injector)

	e.Step(warmup)
	*net.Stats() = Stats{}
	e.Step(window)

	st := net.Stats()
	lp := LoadPoint{
		OfferedPktPerCycle:  float64(st.Injected) / float64(window),
		AcceptedPktPerCycle: float64(st.Delivered) / float64(window),
		AvgLatency:          st.AvgLatencyAll(),
	}
	lp.Saturated = lp.AcceptedPktPerCycle < 0.9*lp.OfferedPktPerCycle
	return lp
}
