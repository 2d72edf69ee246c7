package noc

// PacketPool recycles Packets so the protocol's steady state allocates
// nothing: a delivered packet is returned to the receiving node's pool and
// reused for that node's future sends. All operations on one pool come
// from the owning node — the agents that send from it and the dispatcher
// that recycles into it — and because Get fully re-initializes the
// packet, pooling is invisible to simulation results (only heap addresses
// differ).
//
// Senders keep their message payload in a cell that travels with the
// packet: Get returns the packet's *any payload slot untouched, so a
// caller that stores a pointer (for example *coherence.Msg) on first use
// can overwrite the pointee on reuse without re-boxing — the second
// allocation the pool exists to eliminate.
type PacketPool struct {
	free []*Packet
}

// Packet-ID spaces: each protocol agent numbers its own packets inside a
// tag|agent|sequence partition, so IDs stay chip-unique without a shared
// counter and each agent's IDs depend only on its own sends, never on the
// order in which agents tick.
const (
	PktTagL1  = 1
	PktTagDir = 2
	PktTagMC  = 3
)

// PacketIDBase returns the base of an agent's private packet-ID space;
// the agent ORs in its own sequence counter.
func PacketIDBase(tag, agent int) uint64 {
	return uint64(tag)<<56 | uint64(agent)<<40
}

// Get returns a packet with all transfer fields reset. The Payload slot is
// preserved from the packet's previous life (nil on a fresh packet) so
// callers can reuse their payload cell.
func (pl *PacketPool) Get() *Packet {
	n := len(pl.free)
	if n == 0 {
		return &Packet{}
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	payload := p.Payload
	*p = Packet{Payload: payload}
	return p
}

// Put recycles a delivered packet. The caller must not retain p or its
// payload cell afterwards.
func (pl *PacketPool) Put(p *Packet) {
	if p == nil {
		return
	}
	pl.free = append(pl.free, p)
}
