package core

import (
	"fmt"

	"nocout/internal/noc"
	"nocout/internal/sim"
	"nocout/internal/tech"
	"nocout/internal/topo"
)

// Network is the composite NOC-Out interconnect: per-half-column reduction
// and dispersion trees plus the flattened-butterfly LLC network. It
// implements noc.Network with core endpoints first (0..NumCoreNodes-1) and
// LLC tiles after (NumCoreNodes..NumNodes-1).
type Network struct {
	Cfg Config

	rn         *noc.RouterNetwork
	LLCRouters []*noc.Router
	RedNodes   []*noc.Router // all reduction-tree nodes
	DispNodes  []*noc.Router // all dispersion-tree nodes
}

// Tick implements noc.Network.
func (n *Network) Tick(now sim.Cycle) { n.rn.Tick(now) }

// Send implements noc.Network.
func (n *Network) Send(now sim.Cycle, p *noc.Packet) { n.rn.Send(now, p) }

// SetDeliver implements noc.Network.
func (n *Network) SetDeliver(id noc.NodeID, fn func(now sim.Cycle, p *noc.Packet)) {
	n.rn.SetDeliver(id, fn)
}

// Stats implements noc.Network.
func (n *Network) Stats() *noc.Stats { return n.rn.Stats() }

// RN exposes the underlying router network for checkpointing.
func (n *Network) RN() *noc.RouterNetwork { return n.rn }

// RegisterInto implements sim.Registrar: the tree nodes, LLC routers and
// NIs register as independently quiescent components.
func (n *Network) RegisterInto(e *sim.Engine) { n.rn.RegisterInto(e) }

var _ noc.Network = (*Network)(nil)
var _ sim.Registrar = (*Network)(nil)

// llcPorts records the port layout of one LLC router.
type llcPorts struct {
	rowOut   []int    // by destination column; -1 for self
	colOut   []int    // by destination LLC row; -1 for self
	localOut int      // to the bank NI
	treeOut  [2][]int // [side][coreRow] -> output port carrying that row's traffic
}

// Build constructs the NOC-Out network for cfg.
func Build(cfg Config) *Network {
	cfg = cfg.WithDefaults()
	n := &Network{Cfg: cfg}
	rn := noc.NewRouterNetwork("nocout", cfg.TotalNodes())
	n.rn = rn
	stats := rn.StatsRef()

	coreTile := CoreTileMM()

	// --- LLC routers -----------------------------------------------------
	ports := make([]llcPorts, cfg.NumLLCTiles())
	llcRouters := make([]*noc.Router, cfg.NumLLCTiles())
	for col := 0; col < cfg.Columns; col++ {
		for lr := 0; lr < cfg.LLCRows; lr++ {
			idx := lr*cfg.Columns + col
			id := cfg.LLCNode(col, lr)
			r := noc.NewRouter(id, fmt.Sprintf("llc.r%d_%d", col, lr), cfg.LLCPipe, nil)
			p := llcPorts{rowOut: make([]int, cfg.Columns), colOut: make([]int, cfg.LLCRows)}
			for tx := 0; tx < cfg.Columns; tx++ {
				p.rowOut[tx] = -1
				if tx == col {
					continue
				}
				depth := int(topo.FBflyLinkDelay(absInt(tx-col), cfg.TilesPerCycle)) + cfg.LLCBufFlits
				r.AddIn(fmt.Sprintf("x%d", tx), depth)
				p.rowOut[tx] = r.AddOut(fmt.Sprintf("x%d", tx))
			}
			for ty := 0; ty < cfg.LLCRows; ty++ {
				p.colOut[ty] = -1
				if ty == lr {
					continue
				}
				r.AddIn(fmt.Sprintf("y%d", ty), cfg.LLCBufFlits+1)
				p.colOut[ty] = r.AddOut(fmt.Sprintf("y%d", ty))
			}
			r.AddIn("local", cfg.LLCBufFlits)
			p.localOut = r.AddOut("local")
			llcRouters[idx] = r
			ports[idx] = p
		}
	}
	n.LLCRouters = llcRouters

	// --- memory-controller endpoints (dedicated edge-router ports) ---------
	mcOut := make(map[int]map[int]int) // llc router idx -> mc k -> out port
	mcIn := make(map[int]map[int]int)
	for k := 0; k < cfg.MCCount; k++ {
		col, lr := cfg.MCAttach(k)
		idx := lr*cfg.Columns + col
		r := llcRouters[idx]
		if mcOut[idx] == nil {
			mcOut[idx] = map[int]int{}
			mcIn[idx] = map[int]int{}
		}
		mcIn[idx][k] = r.AddIn(fmt.Sprintf("mc%d", k), cfg.LLCBufFlits)
		mcOut[idx][k] = r.AddOut(fmt.Sprintf("mc%d", k))
	}

	// --- bank endpoints (dedicated per-bank ports, §5.1) -------------------
	bankOut := make([][]int, cfg.NumLLCTiles()) // [tile][port] -> out port
	bankIn := make([][]int, cfg.NumLLCTiles())
	for tile := 0; tile < cfg.NumLLCTiles(); tile++ {
		bankOut[tile] = make([]int, cfg.BankPorts)
		bankIn[tile] = make([]int, cfg.BankPorts)
		for k := 0; k < cfg.BankPorts; k++ {
			r := llcRouters[tile]
			bankIn[tile][k] = r.AddIn(fmt.Sprintf("bank%d", k), cfg.LLCBufFlits)
			bankOut[tile][k] = r.AddOut(fmt.Sprintf("bank%d", k))
		}
	}

	// --- routing at LLC routers -------------------------------------------
	// A core at (c, side, row) attaches to the LLC tile at column c in the
	// LLC row nearest its side: row 0 for side 0 (top), LLCRows-1 for
	// side 1 (bottom).
	attachRow := func(side int) int {
		if side == 0 {
			return 0
		}
		return cfg.LLCRows - 1
	}
	for col := 0; col < cfg.Columns; col++ {
		for lr := 0; lr < cfg.LLCRows; lr++ {
			col, lr := col, lr
			idx := lr*cfg.Columns + col
			p := &ports[idx]
			llcRouters[idx].SetRoute(func(pk *noc.Packet) int {
				if cfg.IsBankNode(pk.Dst) {
					tile, port := cfg.bankLoc(pk.Dst)
					if tile == idx {
						return bankOut[idx][port]
					}
					tcol, tlr := tile%cfg.Columns, tile/cfg.Columns
					if tcol != col {
						return p.rowOut[tcol]
					}
					return p.colOut[tlr]
				}
				if int(pk.Dst) >= cfg.NumNodes() {
					k := int(pk.Dst) - cfg.NumNodes()
					mcol, mlr := cfg.MCAttach(k)
					if mcol == col && mlr == lr {
						return mcOut[idx][k]
					}
					if mcol != col {
						return p.rowOut[mcol]
					}
					return p.colOut[mlr]
				}
				if cfg.IsLLCNode(pk.Dst) {
					tx, ty := cfg.LLCLoc(pk.Dst)
					switch {
					case tx == col && ty == lr:
						return p.localOut
					case tx != col:
						return p.rowOut[tx]
					default:
						return p.colOut[ty]
					}
				}
				c2, s2, r2 := cfg.CoreLoc(pk.Dst)
				ar := attachRow(s2)
				switch {
				case c2 != col:
					return p.rowOut[c2]
				case lr != ar:
					return p.colOut[ar]
				default:
					return p.treeOut[s2][r2]
				}
			})
		}
	}

	// --- LLC fbfly links ---------------------------------------------------
	inRowPort := func(idx, fromCol int) int {
		col := idx % cfg.Columns
		k := 0
		for t := 0; t < cfg.Columns; t++ {
			if t == col {
				continue
			}
			if t == fromCol {
				return k
			}
			k++
		}
		panic("core: llc row input not found")
	}
	inColPort := func(idx, fromRow int) int {
		lr := idx / cfg.Columns
		k := cfg.Columns - 1
		for t := 0; t < cfg.LLCRows; t++ {
			if t == lr {
				continue
			}
			if t == fromRow {
				return k
			}
			k++
		}
		panic("core: llc col input not found")
	}
	llcTileH := LLCTileHeightMM(1)
	for col := 0; col < cfg.Columns; col++ {
		for lr := 0; lr < cfg.LLCRows; lr++ {
			idx := lr*cfg.Columns + col
			for tx := col + 1; tx < cfg.Columns; tx++ {
				j := lr*cfg.Columns + tx
				dist := tx - col
				delay := topo.FBflyLinkDelay(dist, cfg.TilesPerCycle)
				lenMM := float64(dist) * coreTile
				noc.Connect(llcRouters[idx], ports[idx].rowOut[tx], llcRouters[j], inRowPort(j, col), delay, lenMM)
				noc.Connect(llcRouters[j], ports[j].rowOut[col], llcRouters[idx], inRowPort(idx, tx), delay, lenMM)
			}
			for ty := lr + 1; ty < cfg.LLCRows; ty++ {
				j := ty*cfg.Columns + col
				dist := ty - lr
				delay := topo.FBflyLinkDelay(dist, cfg.TilesPerCycle)
				lenMM := float64(dist) * llcTileH
				noc.Connect(llcRouters[idx], ports[idx].colOut[ty], llcRouters[j], inColPort(j, lr), delay, lenMM)
				noc.Connect(llcRouters[j], ports[j].colOut[lr], llcRouters[idx], inColPort(idx, ty), delay, lenMM)
			}
		}
	}

	// --- reduction and dispersion trees ------------------------------------
	redPrio := []noc.Cand{
		{Port: 0, VC: noc.ClassResp}, {Port: 1, VC: noc.ClassResp},
		{Port: 0, VC: noc.ClassReq}, {Port: 1, VC: noc.ClassReq},
		{Port: 0, VC: noc.ClassSnoop}, {Port: 1, VC: noc.ClassSnoop},
	}
	dispPrio := []noc.Cand{
		{Port: 0, VC: noc.ClassResp},
		{Port: 0, VC: noc.ClassSnoop},
		{Port: 0, VC: noc.ClassReq},
	}

	for col := 0; col < cfg.Columns; col++ {
		for side := 0; side < 2; side++ {
			llcIdx := attachRow(side)*cfg.Columns + col
			llc := llcRouters[llcIdx]
			lp := &ports[llcIdx]
			lp.treeOut[side] = make([]int, cfg.RowsPerSide)

			// Reduction chain: depth RowsPerSide-1 (farthest) .. 0.
			red := make([]*noc.Router, cfg.RowsPerSide)
			for d := 0; d < cfg.RowsPerSide; d++ {
				r := noc.NewRouter(-1, fmt.Sprintf("red.c%d_s%d_d%d", col, side, d), 0, nil)
				r.SetRoute(func(pk *noc.Packet) int { return 0 }) // single output: toward the LLC
				r.AddIn("net", cfg.TreeBufFlits)
				r.AddIn("local", cfg.TreeBufFlits)
				r.AddOut("down")
				r.SetPriority(redPrio)
				r.SetVCCount(2) // requests + responses only (§4.1)
				red[d] = r
				n.RedNodes = append(n.RedNodes, r)
			}
			express := func(d int) bool { return cfg.ExpressFrom > 0 && d >= cfg.ExpressFrom }
			for d := 0; d < cfg.RowsPerSide; d++ {
				if express(d) {
					// Direct long link to a dedicated LLC tree-in port.
					in := llc.AddIn(fmt.Sprintf("xred%d_%d", side, d), cfg.TreeBufFlits)
					delay := topo.FBflyLinkDelay(d+1, cfg.TilesPerCycle)
					noc.Connect(red[d], 0, llc, in, delay, float64(d+1)*coreTile)
					continue
				}
				if d == 0 {
					in := llc.AddIn(fmt.Sprintf("red%d", side), cfg.TreeBufFlits)
					noc.Connect(red[0], 0, llc, in, cfg.TreeHop, treeHopLenMM())
				} else {
					noc.Connect(red[d], 0, red[d-1], 0, cfg.TreeHop, treeHopLenMM())
				}
			}

			// Dispersion chain: depth 0 (adjacent) .. RowsPerSide-1.
			disp := make([]*noc.Router, cfg.RowsPerSide)
			for d := 0; d < cfg.RowsPerSide; d++ {
				d := d
				r := noc.NewRouter(-1, fmt.Sprintf("disp.c%d_s%d_d%d", col, side, d), 0, nil)
				r.AddIn("net", cfg.TreeBufFlits)
				local := r.AddOut("local")
				up := -1
				if d < cfg.RowsPerSide-1 && !express(d+1) {
					up = r.AddOut("up")
				}
				r.SetRoute(func(pk *noc.Packet) int {
					_, _, r2 := cfg.CoreLoc(pk.Dst)
					if r2 == d {
						return local
					}
					if up < 0 {
						panic(fmt.Sprintf("core: dispersion node %s cannot reach row %d", r.Name, r2))
					}
					return up
				})
				r.SetPriority(dispPrio)
				r.SetVCCount(2) // responses + snoops only (§4.2)
				disp[d] = r
				n.DispNodes = append(n.DispNodes, r)
			}
			for d := 0; d < cfg.RowsPerSide; d++ {
				var out int
				if express(d) {
					out = llc.AddOut(fmt.Sprintf("xdisp%d_%d", side, d))
					delay := topo.FBflyLinkDelay(d+1, cfg.TilesPerCycle)
					noc.Connect(llc, out, disp[d], 0, delay, float64(d+1)*coreTile)
				} else if d == 0 {
					out = llc.AddOut(fmt.Sprintf("disp%d", side))
					noc.Connect(llc, out, disp[0], 0, cfg.TreeHop, treeHopLenMM())
				} else {
					out = lp.treeOut[side][d-1] // traffic for deeper rows shares the chain
					noc.Connect(disp[d-1], 1, disp[d], 0, cfg.TreeHop, treeHopLenMM())
				}
				lp.treeOut[side][d] = out
			}
			// Rows reached through the chain all use the chain's first
			// output from the LLC router; express rows use their own.
			chainOut := lp.treeOut[side][0]
			for d := 1; d < cfg.RowsPerSide; d++ {
				if !express(d) {
					lp.treeOut[side][d] = chainOut
				}
			}

			// Core NIs: inject into the reduction node's local port, eject
			// from the dispersion node's local output.
			for d := 0; d < cfg.RowsPerSide; d++ {
				id := cfg.CoreNode(col, side, d)
				ni := noc.NewNI(id, stats)
				noc.ConnectNIInject(ni, red[d], 1, 1)
				noc.ConnectNIEject(ni, disp[d], 0, 1, cfg.EjectBuf)
				rn.NIs[id] = ni
			}
			rn.Routers = append(rn.Routers, red...)
			rn.Routers = append(rn.Routers, disp...)
		}
	}

	// Bank NIs on the LLC routers' local ports.
	for col := 0; col < cfg.Columns; col++ {
		for lr := 0; lr < cfg.LLCRows; lr++ {
			idx := lr*cfg.Columns + col
			id := cfg.LLCNode(col, lr)
			ni := noc.NewNI(id, stats)
			localIn := -1
			// The local input is the one added right before tree ports;
			// find it by name ordering: it was added after row/col ports.
			localIn = cfg.Columns - 1 + cfg.LLCRows - 1
			noc.ConnectNI(ni, llcRouters[idx], localIn, ports[idx].localOut, 1, 1, cfg.EjectBuf)
			rn.NIs[id] = ni
		}
	}
	for k := 0; k < cfg.MCCount; k++ {
		col, lr := cfg.MCAttach(k)
		idx := lr*cfg.Columns + col
		ni := noc.NewNI(cfg.MCNode(k), stats)
		noc.ConnectNI(ni, llcRouters[idx], mcIn[idx][k], mcOut[idx][k], 1, 1, cfg.EjectBuf)
		rn.NIs[cfg.MCNode(k)] = ni
	}
	for tile := 0; tile < cfg.NumLLCTiles(); tile++ {
		for k := 0; k < cfg.BankPorts; k++ {
			id := cfg.BankNode(tile%cfg.Columns, tile/cfg.Columns, k)
			ni := noc.NewNI(id, stats)
			noc.ConnectNI(ni, llcRouters[tile], bankIn[tile][k], bankOut[tile][k], 1, 1, cfg.EjectBuf)
			rn.NIs[id] = ni
		}
	}
	rn.Routers = append(rn.Routers, llcRouters...)
	return n
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// WireDelay returns an idealized wire-only delay between two NOC-Out
// endpoints, used for idealized comparisons.
func (n *Network) WireDelay(a, b noc.NodeID) sim.Cycle {
	cfg := n.Cfg
	pos := func(id noc.NodeID) (x, y float64) {
		tile := CoreTileMM()
		if cfg.IsLLCNode(id) {
			c, lr := cfg.LLCLoc(id)
			return float64(c) * tile, float64(cfg.RowsPerSide) * tile * (0.5 + float64(lr))
		}
		c, s, r := cfg.CoreLoc(id)
		if s == 0 {
			return float64(c) * tile, float64(cfg.RowsPerSide-1-r) * tile
		}
		return float64(c) * tile, float64(cfg.RowsPerSide+cfg.LLCRows+r) * tile
	}
	ax, ay := pos(a)
	bx, by := pos(b)
	d := absF(ax-bx) + absF(ay-by)
	return sim.Cycle(tech.WireCycles(d))
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
