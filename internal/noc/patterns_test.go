package noc

import "nocout/internal/sim"

// These synthetic traffic patterns and the load sweep serve only the
// open-loop load-latency tests.

// UniformPattern returns uniform-random traffic among nodes with the given
// packet size in flits.
func UniformPattern(nodes []NodeID, size int) Pattern {
	if len(nodes) < 2 {
		panic("noc: uniform pattern needs at least two nodes")
	}
	return func(r *sim.RNG) (NodeID, NodeID, int) {
		s := nodes[r.Intn(len(nodes))]
		d := nodes[r.Intn(len(nodes))]
		for d == s {
			d = nodes[r.Intn(len(nodes))]
		}
		return s, d, size
	}
}

// HotspotPattern returns hotspot traffic: hotFrac of the packets target
// the single hot node (a popular LLC bank, a memory channel), the rest
// are uniform-random. It is the classic endpoint-congestion stressor:
// accepted throughput caps near the hot node's ejection bandwidth long
// before the bisection saturates.
func HotspotPattern(nodes []NodeID, hot NodeID, hotFrac float64, size int) Pattern {
	if len(nodes) < 2 {
		panic("noc: hotspot pattern needs at least two nodes")
	}
	if hotFrac < 0 || hotFrac > 1 {
		panic("noc: hotspot fraction must be in [0, 1]")
	}
	return func(r *sim.RNG) (NodeID, NodeID, int) {
		dst := hot
		if !r.Bool(hotFrac) {
			dst = nodes[r.Intn(len(nodes))]
			for dst == hot {
				dst = nodes[r.Intn(len(nodes))]
			}
		}
		src := nodes[r.Intn(len(nodes))]
		for src == dst {
			src = nodes[r.Intn(len(nodes))]
		}
		return src, dst, size
	}
}

// TransposePattern returns the matrix-transpose permutation on a
// side×side grid (NodeID = y*side + x): tile (x, y) sends to (y, x).
// It is the classic adversarial permutation for dimension-ordered
// routing — XY-routed transpose traffic piles onto a few column links —
// so it bounds the fabric's worst permutation behaviour in the §6.1
// load-latency characterization. Diagonal tiles (x == y) would
// self-send and are skipped.
func TransposePattern(side, size int) Pattern {
	if side < 2 {
		panic("noc: transpose pattern needs a side of at least 2")
	}
	return func(r *sim.RNG) (NodeID, NodeID, int) {
		for {
			s := r.Intn(side * side)
			x, y := s%side, s/side
			if x == y {
				continue
			}
			return NodeID(s), NodeID(x*side + y), size
		}
	}
}

// BitComplementPattern returns the bit-complement permutation over n
// endpoints: node i sends to n-1-i (every address bit flipped when n is
// a power of two). All traffic crosses the die center, making it the
// standard bisection-bandwidth stressor. For odd n the middle node is
// its own complement and is skipped.
func BitComplementPattern(n, size int) Pattern {
	if n < 2 {
		panic("noc: bit-complement pattern needs at least two nodes")
	}
	return func(r *sim.RNG) (NodeID, NodeID, int) {
		for {
			s := r.Intn(n)
			d := n - 1 - s
			if d == s {
				continue
			}
			return NodeID(s), NodeID(d), size
		}
	}
}

// LoadSweep measures a curve over the given rates, rebuilding the network
// for each point (open-loop points must not share queue state).
func LoadSweep(build func() Network, nodes []NodeID, pattern Pattern, rates []float64, warmup, window sim.Cycle, seed uint64) []LoadPoint {
	out := make([]LoadPoint, len(rates))
	for i, r := range rates {
		out[i] = MeasureLoad(build(), nodes, pattern, r, warmup, window, seed)
	}
	return out
}
