package nocout

import (
	"nocout/internal/chip"
	"nocout/internal/noc"
	"nocout/internal/physic"
	"nocout/internal/registry"
	"nocout/internal/topo"
)

// This file extends the design space beyond the paper's four
// organizations, registered through the same public RegisterDesign path a
// user organization takes (EXPERIMENTS.md walks through torusOrg as the
// worked example):
//
//   - Torus: the mesh's grid with folded wrap-around links — half the
//     diameter for twice the wire, a natural "what if we just shorten the
//     mesh" counterfactual to NOC-Out's specialization argument.
//   - CMesh: a 4:1 concentrated mesh — fewer, higher-radix routers, the
//     standard CMP answer to mesh hop count.
//   - Crossbar: the §2.2 background design — the Oracle T-series-style
//     central switch whose quadratic area is why scale-out parts stopped
//     at ~16 cores; resurrected here so the registry can sweep it against
//     the paper's fabrics.

// The extended organizations' Design handles, minted at package init in
// this order (after the builtin four).
var (
	Torus    = registry.Must(RegisterDesign(torusOrg{}))
	CMesh    = registry.Must(RegisterDesign(cmeshOrg{}))
	Crossbar = registry.Must(RegisterDesign(crossbarOrg{}))
)

// --- Torus ------------------------------------------------------------------

// torusOrg is the folded 2-D torus organization: tiled like the mesh, with
// wrap-around rings kept deadlock-free by bubble flow control.
type torusOrg struct{}

func (torusOrg) Name() string          { return "Torus" }
func (torusOrg) Aliases() []string     { return []string{"2d-torus"} }
func (torusOrg) DefaultConfig() Config { return chip.Table1Config() }

func (torusOrg) Build(cfg Config) *chip.Fabric {
	plan := topo.TiledFloorplan(cfg.Cores, float64(cfg.LLCMB))
	p := topo.DefaultTorusParams(plan)
	// The bubble thresholds must cover the largest protocol packet: a
	// 64-byte line plus header at this link width.
	p.MaxPktFlits = noc.FlitsFor(64, cfg.LinkBits)
	p.AuxTiles = topo.MCTiles(plan, cfg.MemChannels)
	rn := topo.NewTorus(p)
	return chip.TiledFabric(cfg, plan, rn, rn.Routers)
}

func (torusOrg) AreaModel(cfg Config) (physic.Breakdown, physic.BufferKind) {
	return physic.TorusArea(cfg.Cores, float64(cfg.LLCMB), cfg.LinkBits), physic.FlipFlop
}

// --- CMesh ------------------------------------------------------------------

// cmeshOrg is the 4:1 concentrated mesh organization: 2x2 tile blocks
// share one router, so the 64-tile chip routes through a 4x4 mesh.
type cmeshOrg struct{}

func (cmeshOrg) Name() string          { return "CMesh" }
func (cmeshOrg) Aliases() []string     { return []string{"concentrated-mesh"} }
func (cmeshOrg) DefaultConfig() Config { return chip.Table1Config() }

func (cmeshOrg) Build(cfg Config) *chip.Fabric {
	plan := topo.TiledFloorplan(cfg.Cores, float64(cfg.LLCMB))
	p := topo.DefaultCMeshParams(plan)
	p.AuxTiles = topo.MCTiles(plan, cfg.MemChannels)
	rn := topo.NewCMesh(p)
	return chip.TiledFabric(cfg, plan, rn, rn.Routers)
}

func (cmeshOrg) AreaModel(cfg Config) (physic.Breakdown, physic.BufferKind) {
	return physic.CMeshArea(cfg.Cores, float64(cfg.LLCMB), cfg.LinkBits), physic.FlipFlop
}

// --- Crossbar ---------------------------------------------------------------

// crossbarOrg is the delay-optimized central crossbar of §2.2: every tile
// wired to one switch at the die center.
type crossbarOrg struct{}

func (crossbarOrg) Name() string          { return "Crossbar" }
func (crossbarOrg) Aliases() []string     { return []string{"xbar", "central-crossbar"} }
func (crossbarOrg) DefaultConfig() Config { return chip.Table1Config() }

func (crossbarOrg) Build(cfg Config) *chip.Fabric {
	plan := topo.TiledFloorplan(cfg.Cores, float64(cfg.LLCMB))
	p := topo.DefaultCrossbarParams(plan)
	p.AuxTiles = topo.MCTiles(plan, cfg.MemChannels)
	rn := topo.NewCrossbar(p)
	return chip.TiledFabric(cfg, plan, rn, rn.Routers)
}

func (crossbarOrg) AreaModel(cfg Config) (physic.Breakdown, physic.BufferKind) {
	return physic.CrossbarArea(cfg.Cores, float64(cfg.LLCMB), cfg.LinkBits), physic.FlipFlop
}
