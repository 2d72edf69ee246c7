// Package chip assembles complete CMPs: cores with L1s, a distributed
// LLC with directory, memory channels, an interchangeable interconnect
// organization resolved through the Organization registry (the paper's
// mesh, flattened butterfly, NOC-Out, and ideal fabrics are builtin;
// RegisterOrganization adds more), and an interchangeable memory
// hierarchy resolved through the Hierarchy registry (the paper's shared
// NUCA is builtin; RegisterHierarchy adds placement policies, private
// slices, clustered LLCs). It also owns the measurement loop (warm-up +
// measurement window) that stands in for the paper's SimFlex sampling.
package chip

import (
	"math"

	"nocout/internal/coherence"
	"nocout/internal/core"
	"nocout/internal/cpu"
	"nocout/internal/mem"
	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/topo"
	"nocout/internal/workload"
)

// Config describes a CMP instance.
type Config struct {
	Design      Design    `json:"design"`
	Cores       int       `json:"cores"`  // total cores (power of two)
	LLCMB       int       `json:"llc_mb"` // total LLC capacity (8 in Table 1)
	LLCWays     int       `json:"llc_ways"`
	LinkBits    int       `json:"link_bits"` // NoC link width (128 in the fixed-budget study)
	MemChannels int       `json:"mem_channels"`
	BankLat     sim.Cycle `json:"bank_lat"` // LLC bank access pipeline
	Seed        uint64    `json:"seed"`

	// Hierarchy selects the memory hierarchy (LLC organization, home
	// placement, channel mapping); the zero value is the paper's shared
	// NUCA baseline. Resolve names with ParseHierarchy.
	Hierarchy HierarchyID `json:"hierarchy,omitempty"`
	// Mem is the memory-channel timing; zero fields take the DDR3-1667
	// defaults (mem.DefaultConfig) via WithDefaults.
	Mem mem.Config `json:"mem"`
	// LLCClusterTiles sets the Clustered hierarchy's cluster size (tiles
	// per LLC cluster); 0 means the hierarchy's default.
	LLCClusterTiles int `json:"llc_cluster_tiles,omitempty"`

	// NOCOut overrides the NOC-Out organization (concentration, express
	// links, LLC rows, banks per tile); zero value uses the paper baseline.
	NOCOut core.Config `json:"nocout_org"`
	// BanksPerLLCTile sets NOC-Out's internal banking (2 in §5.1).
	BanksPerLLCTile int `json:"banks_per_llc_tile"`
}

// Table1Config returns the paper's Table 1 64-core CMP parameters with the
// Design left unset; organizations use it as their common baseline.
func Table1Config() Config {
	return Config{
		Cores:           64,
		LLCMB:           8,
		LLCWays:         16,
		LinkBits:        128,
		MemChannels:     4,
		BankLat:         4,
		BanksPerLLCTile: 2,
		Mem:             mem.DefaultConfig(),
		Seed:            1,
	}
}

// DefaultConfig returns a design's default system (Table 1 for the paper's
// organizations). Unregistered designs are a hard error.
func DefaultConfig(d Design) Config {
	org, err := OrganizationOf(d)
	if err != nil {
		panic(err)
	}
	cfg := org.DefaultConfig()
	cfg.Design = d
	return cfg
}

// Chip is a fully assembled CMP bound to one workload source.
type Chip struct {
	Cfg      Config
	Workload workload.Workload

	Engine *sim.Engine
	Net    noc.Network
	Cores  []*cpu.Core
	L1s    []*coherence.L1
	Banks  []*coherence.Bank
	MCs    []*mem.Controller

	// Fabric is the organization's built interconnect and endpoint layout.
	Fabric *Fabric
	// Memory is the hierarchy's built memory-system layout: bank
	// placement and the home/channel mapping functions the agents were
	// wired with (the conformance suite probes it directly).
	Memory *MemoryLayout
	// Plan is the tiled floorplan when the organization has one.
	Plan topo.Floorplan
	// NocNet is set by the NOC-Out organization.
	NocNet *core.Network

	pools  []*noc.PacketPool
	active int

	// trackers are the enabled cores' open-system streams, when the
	// workload is an open one; empty for closed-loop workloads.
	trackers []workload.OpenTracker
}

// New builds a chip running workload w — any Workload implementation:
// a registered synthetic, a replayed capture, a mix, a phased schedule.
// The design's organization and the memory hierarchy are resolved through
// their registries; an unregistered design or hierarchy panics, as does a
// hierarchy that cannot inhabit the organization's fabric.
func New(cfg Config, w workload.Workload) *Chip {
	if cfg.Cores < 1 {
		panic("chip: need at least one core")
	}
	if cfg.LinkBits == 0 {
		cfg.LinkBits = 128
	}
	if cfg.BanksPerLLCTile == 0 {
		cfg.BanksPerLLCTile = 2
	}
	cfg.Mem = cfg.Mem.WithDefaults()
	org, err := OrganizationOf(cfg.Design)
	if err != nil {
		panic(err)
	}
	hier, err := HierarchyOf(cfg.Hierarchy)
	if err != nil {
		panic(err)
	}
	c := &Chip{Cfg: cfg, Workload: w}
	fab := org.Build(cfg)
	c.Fabric = fab
	c.Net = fab.Net
	c.Plan = fab.Plan
	c.NocNet = fab.NocNet
	ml, err := hier.Build(cfg, fab, w.Layout())
	if err != nil {
		panic(err)
	}
	c.Memory = ml
	c.Engine = sim.NewEngine()

	c.buildAgents(fab, ml)
	c.buildCores(fab.CoreOrder)
	c.register()
	return c
}

// ActiveCores returns the number of enabled cores (the workload's
// scalability limit may disable some).
func (c *Chip) ActiveCores() int { return c.active }

// buildAgents attaches the protocol agents — LLC banks with directory
// slices, memory controllers, and L1s — to the endpoint placement the
// hierarchy decided over the fabric. The chip is generic here: bank
// count, bank/L1/memory configs, and the home and channel mappings all
// come from the MemoryLayout.
func (c *Chip) buildAgents(fab *Fabric, ml *MemoryLayout) {
	cfg := c.Cfg
	// One packet pool per node, shared by the agents sending from that
	// node and the dispatcher recycling delivered packets into it.
	c.pools = make([]*noc.PacketPool, fab.NumNodes)
	for i := range c.pools {
		c.pools[i] = &noc.PacketPool{}
	}
	mcNode := func(line uint64) (noc.NodeID, int) {
		ch := ml.ChannelOf(line)
		return fab.MCNodes[ch], ch
	}
	for b := 0; b < ml.NumBanks; b++ {
		node := ml.BankNode(b)
		c.Banks = append(c.Banks, coherence.NewBank(b, node, c.Net, ml.BankConf(b), c.pools[node], mcNode, fab.CoreNode))
	}
	for ch := 0; ch < cfg.MemChannels; ch++ {
		mc := mem.NewController(ch, fab.MCNodes[ch], c.Net, ml.MemConf, c.pools[fab.MCNodes[ch]], ml.BankNode)
		c.MCs = append(c.MCs, mc)
	}
	for i := 0; i < cfg.Cores; i++ {
		node := fab.CoreNode(i)
		l1 := coherence.NewL1(i, node, c.Net, ml.L1Conf, c.pools[node], ml.Home, fab.CoreNode)
		c.L1s = append(c.L1s, l1)
	}
	c.installDispatchers(fab.NumNodes)
}

// installDispatchers wires every network node's delivery callback to the
// protocol agents (several agents can share a node).
func (c *Chip) installDispatchers(nNodes int) {
	for node := 0; node < nNodes; node++ {
		pool := c.pools[node]
		c.Net.SetDeliver(noc.NodeID(node), func(now sim.Cycle, p *noc.Packet) {
			// Copy the message out, then recycle the packet (and its
			// payload cell) into this node's pool before dispatching, so
			// a send the delivery triggers can reuse it immediately.
			m := *p.Payload.(*coherence.Msg)
			pool.Put(p)
			switch m.Dst {
			case coherence.AgentL1:
				c.L1s[m.DstID].Deliver(m)
			case coherence.AgentDir:
				c.Banks[m.DstID].Deliver(m)
			case coherence.AgentMC:
				c.MCs[m.DstID].Deliver(m)
			}
		})
	}
}

// buildCores instantiates the cores, enabling only the workload's
// scalable subset in the fabric's preference order (§5.3). The chip is
// generic over workload sources: it asks the workload for each core's
// stream and pipeline parameters instead of assuming a generator.
func (c *Chip) buildCores(order []int) {
	w := c.Workload
	c.active = c.Cfg.Cores
	if mc := w.MaxCores(); mc > 0 && mc < c.active {
		c.active = mc
	}
	active := map[int]bool{}
	for i := 0; i < c.active; i++ {
		active[order[i]] = true
	}
	for i := 0; i < c.Cfg.Cores; i++ {
		stream := w.StreamFor(i, c.Cfg.Seed)
		cp := w.CoreParams(i, c.Cfg.Seed)
		co := cpu.New(i, cp, c.L1s[i], stream)
		co.SetEnabled(active[i])
		c.Cores = append(c.Cores, co)
		if t, ok := stream.(workload.OpenTracker); ok && active[i] {
			c.trackers = append(c.trackers, t)
		}
	}
}

// register hands every component to the engine directly (not wrapped in
// TickFunc) so the scheduled kernel sees their Sleeper/WakeBinder
// contracts: router networks decompose into independently sleeping routers
// and NIs (sim.Registrar), and the protocol agents' inboxes and pipelines
// become wake sources at this point — which is why all wiring happens
// before this call. Registration order (network, L1s, banks, memory
// channels, cores) is part of the determinism contract.
func (c *Chip) register() {
	c.Engine.Register(c.Net)
	for _, l1 := range c.L1s {
		c.Engine.Register(l1)
	}
	for _, b := range c.Banks {
		c.Engine.Register(b)
	}
	for _, mc := range c.MCs {
		c.Engine.Register(mc)
	}
	for _, co := range c.Cores {
		c.Engine.Register(co)
	}
}

// --- measurement ------------------------------------------------------------

// Warmup runs n cycles and clears all measurement counters, leaving caches,
// predictors-of-sorts and queues warm (the SimFlex-style methodology).
func (c *Chip) Warmup(n sim.Cycle) {
	c.Engine.Step(n)
	// Sleeping components account stall/utilization counters lazily; settle
	// them against the warm-up before zeroing.
	c.Engine.Flush()
	c.resetMeasurementStats()
}

// resetMeasurementStats zeroes every measurement counter, defining the
// measurement boundary. Warmup and the checkpoint-restore path share it,
// so post-restore counter state cannot drift from the warmup path. Lazy
// accounting must be settled (Engine.Flush) before the call.
func (c *Chip) resetMeasurementStats() {
	for _, co := range c.Cores {
		co.ResetStats()
	}
	for _, b := range c.Banks {
		b.Stats = coherence.DirStats{}
	}
	for _, l1 := range c.L1s {
		l1.Stats = coherence.L1Stats{}
	}
	for _, mc := range c.MCs {
		mc.Stats = mem.Stats{}
	}
	*c.Net.Stats() = noc.Stats{}
	for _, t := range c.trackers {
		t.OpenReset()
	}
}

// Run advances the measurement window by n cycles.
func (c *Chip) Run(n sim.Cycle) { c.Engine.Step(n) }

// Metrics summarizes a finished measurement window.
type Metrics struct {
	Cycles      sim.Cycle
	Instrs      int64
	ActiveCores int

	AggIPC     float64 // total committed instructions per cycle
	PerCoreIPC float64 // AggIPC / active cores

	Dir coherence.DirStats
	Net noc.Stats

	AvgNetLatency  float64 // all classes, cycles
	AvgRespLatency float64
	IfetchStallPct float64 // fraction of active-core cycles stalled on I-fetch
	L1IMPKI        float64
	L1DMPKI        float64

	// PerMemberIPC breaks AggIPC down by member workload when the source
	// is heterogeneous (a Mix, or a capture of one); nil otherwise.
	PerMemberIPC map[string]float64

	// Open is the merged request-lifecycle accounting across enabled
	// cores when the workload is open-system; nil for closed-loop runs.
	Open *workload.OpenStats
}

// NetRouters returns the underlying routers of the chip's network (empty
// for the ideal fabric), for energy accounting.
func (c *Chip) NetRouters() []*noc.Router { return c.Fabric.Routers }

// Metrics gathers the chip's counters.
func (c *Chip) Metrics() Metrics {
	c.Engine.Flush() // settle lazily-accounted counters of sleeping components
	var m Metrics
	m.ActiveCores = c.active
	var cycles int64
	var ifetchStall int64
	var iMiss, dMiss int64
	for _, co := range c.Cores {
		if !co.Enabled() {
			continue
		}
		m.Instrs += co.Stats.Instrs
		if co.Stats.Cycles > cycles {
			cycles = co.Stats.Cycles
		}
		ifetchStall += co.Stats.IfetchStall
	}
	for _, l1 := range c.L1s {
		iMiss += l1.Stats.IfetchMisses
		dMiss += l1.Stats.LoadMisses + l1.Stats.StoreMisses
	}
	m.Cycles = sim.Cycle(cycles)
	if cycles > 0 {
		m.AggIPC = float64(m.Instrs) / float64(cycles)
		m.PerCoreIPC = m.AggIPC / float64(m.ActiveCores)
		m.IfetchStallPct = float64(ifetchStall) / float64(cycles*int64(m.ActiveCores))
	}
	if m.Instrs > 0 {
		m.L1IMPKI = float64(iMiss) / float64(m.Instrs) * 1000
		m.L1DMPKI = float64(dMiss) / float64(m.Instrs) * 1000
	}
	for _, b := range c.Banks {
		m.Dir.Add(b.Stats)
	}
	m.Net = *c.Net.Stats()
	m.AvgNetLatency = m.Net.AvgLatencyAll()
	m.AvgRespLatency = m.Net.AvgLatency(noc.ClassResp)
	m.PerMemberIPC = c.perMemberIPC(cycles)
	if len(c.trackers) > 0 {
		open := workload.NewOpenStats()
		for _, t := range c.trackers {
			snap := t.OpenSnapshot()
			open.Merge(&snap)
		}
		m.Open = open
	}
	return m
}

// perMemberIPC attributes committed instructions to member workloads.
// Homogeneous sources (and single-member assignments) yield nil, so
// their Metrics — and Results — are unchanged by the breakdown.
func (c *Chip) perMemberIPC(cycles int64) map[string]float64 {
	if cycles <= 0 {
		return nil
	}
	if _, multi := workload.MemberNameOf(c.Workload, 0); !multi {
		return nil
	}
	instrs := map[string]int64{}
	for i, co := range c.Cores {
		if !co.Enabled() {
			continue
		}
		name, _ := workload.MemberNameOf(c.Workload, i)
		instrs[name] += co.Stats.Instrs
	}
	if len(instrs) < 2 {
		return nil
	}
	out := make(map[string]float64, len(instrs))
	for name, n := range instrs {
		out[name] = float64(n) / float64(cycles)
	}
	return out
}

// Measure is the standard experiment: functional cache warm-up, a timing
// warm-up, then the measurement window.
func Measure(cfg Config, w workload.Workload, warmup, window sim.Cycle) Metrics {
	ch := New(cfg, w)
	ch.PrewarmCaches()
	ch.Warmup(warmup)
	ch.Run(window)
	return ch.Metrics()
}

// StateHash digests the architecturally visible simulation state — the
// clock, network counters, and every agent's statistics and occupancy —
// into one FNV-1a word. The kernel conformance suite compares it
// cycle-by-cycle between the scheduled and naive kernels: any divergence
// in timing or protocol behaviour shows up in these counters within a
// cycle or two of occurring.
func (c *Chip) StateHash() uint64 {
	c.Engine.Flush()
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mixI := func(vs ...int64) {
		for _, v := range vs {
			mix(uint64(v))
		}
	}
	mixI(int64(c.Engine.Now()), int64(c.active))
	ns := c.Net.Stats()
	mixI(ns.Injected, ns.Delivered, ns.FlitHops, ns.PacketHops, ns.InjectFlits)
	mix(math.Float64bits(ns.FlitLinkMM))
	for cl := 0; cl < noc.NumClasses; cl++ {
		mixI(ns.LatencySum[cl], ns.Count[cl])
	}
	for _, co := range c.Cores {
		s := &co.Stats
		mixI(s.Instrs, s.Cycles, s.IfetchStall, s.DataStall, s.SerialStall,
			s.BackPressure, s.LoadsIssued, s.StoresIssued, s.IfetchMisses, s.PeakOutstand)
	}
	for _, l1 := range c.L1s {
		s := &l1.Stats
		mixI(s.IfetchAccesses, s.IfetchMisses, s.LoadAccesses, s.LoadMisses,
			s.StoreAccesses, s.StoreMisses, s.Writebacks, s.SnoopsReceived, s.Fills,
			int64(l1.OutstandingMisses()))
	}
	for _, b := range c.Banks {
		s := &b.Stats
		mixI(s.Accesses, s.Hits, s.Misses, s.SnoopAccesses, s.SnoopMsgs,
			s.BackInvals, s.Recalls, s.Writebacks, s.MemReads, s.MemWrites,
			int64(b.BusyLines()))
	}
	for _, mc := range c.MCs {
		s := &mc.Stats
		mixI(s.Reads, s.Writes, s.BusyCycles, s.QueueSum, s.Samples)
	}
	return h
}

// PrewarmCaches functionally installs the workload's steady-state cache
// contents before timing starts, reproducing the paper's methodology of
// launching measurements "from checkpoints with warmed caches" (§5.4):
// the layout's shared instruction footprint and hot region become
// LLC-resident, and each active core's local region is owned by its L1-D.
func (c *Chip) PrewarmCaches() {
	lay := c.Workload.Layout()
	bankOf := func(line uint64) *coherence.Bank {
		_, bank := c.Memory.Home(line)
		return c.Banks[bank]
	}

	for _, r := range []workload.Region{lay.Instr, lay.Hot} {
		for a := r.Base; a < r.Base+r.Size; a += 64 {
			bankOf(a / 64).PrewarmShared(a / 64)
		}
	}
	for i, co := range c.Cores {
		if !co.Enabled() {
			continue
		}
		r := lay.Local(i)
		for a := r.Base; a < r.Base+r.Size; a += 64 {
			line := a / 64
			if bankOf(line).PrewarmOwned(line, i) {
				c.L1s[i].PrewarmData(line, coherence.StateM)
			}
		}
	}
}
