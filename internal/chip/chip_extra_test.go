package chip

import (
	"testing"

	"nocout/internal/workload"
)

func TestMemoryChannelsBalanced(t *testing.T) {
	// The hashed channel interleave must spread traffic across all four
	// channels (a single saturated channel was a real bug during bring-up).
	c := New(DefaultConfig(Mesh), workload.Synth(workload.MapReduceC))
	c.PrewarmCaches()
	c.Warmup(5000)
	c.Run(15000)
	var total int64
	var min, max int64 = 1 << 62, 0
	for _, mc := range c.MCs {
		n := mc.Stats.Reads
		total += n
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if total == 0 {
		t.Fatal("no memory traffic")
	}
	if min*4 < max {
		t.Fatalf("memory channels imbalanced: min %d, max %d", min, max)
	}
}

func TestPrewarmMakesInstructionsLLCResident(t *testing.T) {
	// With warmed checkpoints the LLC should serve instruction fetches
	// (high hit rate); without them, a short window measures a cold,
	// memory-bound system.
	warm := New(DefaultConfig(Mesh), workload.Synth(workload.SATSolver))
	warm.PrewarmCaches()
	warm.Warmup(5000)
	warm.Run(10000)
	wm := warm.Metrics()

	cold := New(DefaultConfig(Mesh), workload.Synth(workload.SATSolver))
	cold.Warmup(5000)
	cold.Run(10000)
	cm := cold.Metrics()

	if wm.AggIPC <= cm.AggIPC {
		t.Fatalf("prewarming should help: warm %.2f vs cold %.2f", wm.AggIPC, cm.AggIPC)
	}
	if wm.Dir.MissRate() >= cm.Dir.MissRate() {
		t.Fatalf("prewarm should cut LLC misses: warm %.2f vs cold %.2f",
			wm.Dir.MissRate(), cm.Dir.MissRate())
	}
}

func TestNOCOutBankPortsCarryTraffic(t *testing.T) {
	// Every LLC bank must see traffic through its dedicated port.
	c := New(DefaultConfig(NOCOut), workload.Synth(workload.MapReduceW))
	c.PrewarmCaches()
	c.Warmup(5000)
	c.Run(10000)
	for i, b := range c.Banks {
		if b.Stats.Accesses == 0 {
			t.Fatalf("bank %d idle: homing or port wiring broken", i)
		}
	}
	if len(c.Banks) != 16 {
		t.Fatalf("NOC-Out should have 16 banks (8 tiles x 2), got %d", len(c.Banks))
	}
}

func TestBankingSweepBuilds(t *testing.T) {
	for _, banks := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig(NOCOut)
		cfg.BanksPerLLCTile = banks
		m := Measure(cfg, workload.Synth(workload.WebSearch), 2000, 3000)
		if m.Instrs == 0 {
			t.Fatalf("banks/tile=%d produced no work", banks)
		}
	}
}

func TestConcentrated128CoreChip(t *testing.T) {
	cfg := DefaultConfig(NOCOut)
	cfg.Cores = 128
	cfg.NOCOut.Columns = 8
	cfg.NOCOut.RowsPerSide = 4
	cfg.NOCOut.Concentration = 2
	w := workload.Unlimited(workload.Synth(workload.MapReduceC))
	m := Measure(cfg, w, 3000, 5000)
	if m.ActiveCores != 128 {
		t.Fatalf("active = %d", m.ActiveCores)
	}
	if m.Instrs == 0 {
		t.Fatal("concentrated chip silent")
	}
}

func TestExpressLink128CoreChip(t *testing.T) {
	cfg := DefaultConfig(NOCOut)
	cfg.Cores = 128
	cfg.NOCOut.Columns = 8
	cfg.NOCOut.RowsPerSide = 8
	cfg.NOCOut.ExpressFrom = 4
	w := workload.Unlimited(workload.Synth(workload.MapReduceC))
	m := Measure(cfg, w, 3000, 5000)
	if m.Instrs == 0 {
		t.Fatal("express chip silent")
	}
}

func TestNetRoutersAccessor(t *testing.T) {
	mesh := New(DefaultConfig(Mesh), workload.Synth(workload.WebSearch))
	if len(mesh.NetRouters()) != 64 {
		t.Fatalf("mesh routers = %d", len(mesh.NetRouters()))
	}
	no := New(DefaultConfig(NOCOut), workload.Synth(workload.WebSearch))
	// 64 reduction + 64 dispersion + 8 LLC routers.
	if len(no.NetRouters()) != 136 {
		t.Fatalf("NOC-Out routers = %d, want 136", len(no.NetRouters()))
	}
	ideal := New(DefaultConfig(Ideal), workload.Synth(workload.WebSearch))
	if len(ideal.NetRouters()) != 0 {
		t.Fatal("ideal fabric has no routers")
	}
}

func TestDesignString(t *testing.T) {
	if Mesh.String() != "Mesh" || FBfly.String() != "Flattened Butterfly" ||
		NOCOut.String() != "NOC-Out" || Ideal.String() != "Ideal" {
		t.Fatal("design names wrong")
	}
	if Design(99).String() == "" {
		t.Fatal("unknown design should still format")
	}
}

// TestChannelOfCoversAllChannels: the memory layout's channel mapping —
// the function the chip routes every LLC miss through — stays in range,
// uses every channel, and spreads the pathological per-core local
// strides.
func TestChannelOfCoversAllChannels(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	channelOf := New(cfg, workload.Synth(workload.MapReduceC)).Memory.ChannelOf
	seen := map[int]bool{}
	for line := uint64(0); line < 4096; line++ {
		ch := channelOf(line)
		if ch < 0 || ch >= cfg.MemChannels {
			t.Fatalf("ChannelOf out of range: %d", ch)
		}
		seen[ch] = true
	}
	if len(seen) != cfg.MemChannels {
		t.Fatalf("only %d of %d channels used", len(seen), cfg.MemChannels)
	}
	seen = map[int]bool{}
	for core := uint64(0); core < 64; core++ {
		base := (uint64(0x0100_0000_0000) + core*0x0001_0000_0000) / 64
		seen[channelOf(base)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("per-core bases alias onto %d channels", len(seen))
	}
}
