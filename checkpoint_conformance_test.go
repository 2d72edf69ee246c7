package nocout

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"nocout/internal/chip"
	"nocout/internal/sim"
	"nocout/internal/workload"
)

// This file is the checkpoint subsystem's correctness oracle: a chip
// restored from a post-warmup snapshot must be indistinguishable from the
// donor — StateHash-equal at the snapshot cycle, then cycle-for-cycle
// bit-identical through the measurement window, for every registered
// design and every hierarchy. It is the same discipline the kernel
// conformance suite applies to scheduled-vs-naive, extended across a
// serialize/deserialize boundary.

// warmSnapshot builds a chip, warms it like Run does, snapshots it, and
// returns the donor (still runnable) plus the container bytes and the
// donor's state hash at the snapshot cycle.
func warmSnapshot(t *testing.T, cfg Config, w workload.Workload, warmup sim.Cycle) (*chip.Chip, []byte, uint64) {
	t.Helper()
	c := chip.New(cfg, w)
	c.PrewarmCaches()
	c.Warmup(warmup)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return c, buf.Bytes(), c.StateHash()
}

// verifyRestore restores the snapshot and checks hash equality at the
// snapshot cycle, then lockstep bit-identity against the donor through
// window cycles, then final Metrics.
func verifyRestore(t *testing.T, donor *chip.Chip, snap []byte, cfg Config, w workload.Workload, window sim.Cycle) {
	t.Helper()
	r, err := chip.Restore(cfg, w, 1, bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if hd, hr := donor.StateHash(), r.StateHash(); hd != hr {
		t.Fatalf("restored hash %#x != donor hash %#x at snapshot cycle %d", hr, hd, donor.Engine.Now())
	}
	for cy := sim.Cycle(1); cy <= window; cy++ {
		donor.Run(1)
		r.Run(1)
		if hd, hr := donor.StateHash(), r.StateHash(); hd != hr {
			t.Fatalf("state hash diverged %d cycles after restore: donor %#x restored %#x", cy, hd, hr)
		}
	}
	md, mr := donor.Metrics(), r.Metrics()
	if !reflect.DeepEqual(md, mr) {
		t.Fatalf("metrics diverged:\ndonor    %+v\nrestored %+v", md, mr)
	}
}

// TestCheckpointDesignConformance: every registered design at 16 and 64
// cores — snapshot after warmup, restore, and demand bit-identity through
// the measurement window.
func TestCheckpointDesignConformance(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{16, 64} {
				cfg := DefaultConfig(d)
				cfg.Cores = n
				donor, snap, _ := warmSnapshot(t, cfg, w, confQ.Warmup)
				verifyRestore(t, donor, snap, cfg, w, confQ.Window)
			}
		})
	}
}

// TestCheckpointHierarchyConformance: every registered memory hierarchy
// under the same snapshot/restore bit-identity contract.
func TestCheckpointHierarchyConformance(t *testing.T) {
	w, err := workload.Parse("Web Search")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range Hierarchies() {
		h := h
		t.Run(h.String(), func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{16, 64} {
				cfg := DefaultConfig(Mesh)
				cfg.Cores = n
				cfg.Hierarchy = h
				donor, snap, _ := warmSnapshot(t, cfg, w, confQ.Warmup)
				verifyRestore(t, donor, snap, cfg, w, confQ.Window)
			}
		})
	}
}

// TestCheckpointNOC3TraceConformance: a chip replaying a NOC3 streaming
// trace snapshots and restores mid-trace bit-identically — the (block,
// offset) stream cursors serialize, the restore seeks each core's block
// from its keyframe, and the window after the snapshot is
// cycle-for-cycle identical to the donor. The committed legacy NOC2
// fixture, which loads through its in-memory NOC3 conversion and wraps
// many times inside the run, is held to the same contract.
func TestCheckpointNOC3TraceConformance(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	perCore := int(confQ.Warmup+confQ.Window) * 3
	src, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	noc3 := filepath.Join(t.TempDir(), "mrc.noctrace")
	if err := workload.RecordFile(noc3, src, cfg.Cores, perCore, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, path string }{
		{"noc2", noc2Fixture},
		{"noc3", noc3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := mustLoadTrace(t, tc.path)
			donor, snap, _ := warmSnapshot(t, cfg, w, confQ.Warmup)
			verifyRestore(t, donor, snap, cfg, w, confQ.Window)
		})
	}
}

func mustLoadTrace(t *testing.T, path string) workload.Workload {
	t.Helper()
	w, err := workload.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCheckpointOpenSystemConformance: the open-system request lifecycle
// (arrival RNG position, in-flight requests, queue) survives the
// snapshot boundary bit-identically.
func TestCheckpointOpenSystemConformance(t *testing.T) {
	w, err := workload.Parse("opensys:arrival=mmpp,base=web-search,rate=4,size=256,queue=64")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	donor, snap, _ := warmSnapshot(t, cfg, w, confQ.Warmup)
	verifyRestore(t, donor, snap, cfg, w, confQ.Window)
}

// TestCheckpointRejectsMismatchedSystem: a snapshot only restores into the
// exact system it was taken on.
func TestCheckpointRejectsMismatchedSystem(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	_, snap, _ := warmSnapshot(t, cfg, w, 500)

	bad := cfg
	bad.Cores = 32
	if _, err := chip.Restore(bad, w, 1, bytes.NewReader(snap)); err == nil {
		t.Fatal("restore into a 32-core chip from a 16-core snapshot must fail")
	}
	bad = cfg
	bad.Seed++
	if _, err := chip.Restore(bad, w, 1, bytes.NewReader(snap)); err == nil {
		t.Fatal("restore under a different seed must fail")
	}
	bad = DefaultConfig(FBfly)
	bad.Cores = 16
	if _, err := chip.Restore(bad, w, 1, bytes.NewReader(snap)); err == nil {
		t.Fatal("restore into a different design must fail")
	}
	if _, err := chip.Restore(cfg, w, 4, bytes.NewReader(snap)); err == nil {
		t.Fatal("restore into 4 domains must fail")
	}
}

// TestCheckpointTruncationRejected: every strict prefix of a valid
// container must fail to restore with an error, never a panic.
func TestCheckpointTruncationRejected(t *testing.T) {
	w, err := workload.Parse("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	_, snap, _ := warmSnapshot(t, cfg, w, 500)

	for _, cut := range []int{0, 1, 4, len(snap) / 2, len(snap) - 1} {
		if _, err := chip.Restore(cfg, w, 1, bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes restored successfully", cut)
		}
	}
	// A flipped payload byte must be caught by the section CRC.
	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := chip.Restore(cfg, w, 1, bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupted snapshot restored successfully")
	}
}
