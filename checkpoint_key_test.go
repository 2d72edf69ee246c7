package nocout

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPrefixKeyGolden pins the checkpoint key schema: warm-state caches
// are addressed by these strings, so any change to what PrefixKey covers
// or how it canonicalizes MUST bump CheckpointKeyVersion (stale warm
// state must never alias fresh state) — and then update this golden.
func TestPrefixKeyGolden(t *testing.T) {
	const golden = "ck1-227bc6e1d4ac1652400f5450ed4364369451dd763ae0df5cd57ba89359c0e626"
	key, err := goldenPoint().PrefixKey(tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	if key != golden {
		t.Fatalf("golden prefix key drifted:\n got  %s\n want %s\nif the key schema changed deliberately, bump CheckpointKeyVersion and update this golden", key, golden)
	}
}

// TestPrefixKeySensitivity checks the key's coverage boundary both ways:
// everything the warmup executes flips the key; pure measurement knobs —
// the window length and the seed count — do not, so points differing
// only there share one warm state.
func TestPrefixKeySensitivity(t *testing.T) {
	base := goldenPoint()
	baseKey, err := base.PrefixKey(tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(baseKey, CheckpointKeyVersion+"-") || len(baseKey) != len(CheckpointKeyVersion)+1+64 {
		t.Fatalf("key shape: %q", baseKey)
	}

	mutations := map[string]func(*Point){
		"seed":      func(p *Point) { p.Seed = 2; p.Config.Seed = 2 },
		"cores":     func(p *Point) { p.Config.Cores = 16 },
		"design":    func(p *Point) { p.Config.Design = Torus },
		"linkbits":  func(p *Point) { p.Config.LinkBits *= 2 },
		"hierarchy": func(p *Point) { p.Hierarchy = 1; p.Config.Hierarchy = 1 },
		"workload":  func(p *Point) { p.Workload = "Data Serving" },
		"mem":       func(p *Point) { p.Config.Mem.AccessLat += 30 },
	}
	for name, mutate := range mutations {
		p := base
		mutate(&p)
		key, err := p.PrefixKey(tiny, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key == baseKey {
			t.Errorf("changing %s did not change the prefix key", name)
		}
	}

	// Warmup length shapes the warm state: it flips the key.
	q := tiny
	q.Warmup *= 2
	if key, err := base.PrefixKey(q, 0); err != nil || key == baseKey {
		t.Errorf("changing warmup did not change the prefix key (err %v)", err)
	}
	// Each derived seed is its own prefix.
	if key, err := base.PrefixKey(tiny, 1); err != nil || key == baseKey {
		t.Errorf("changing seed index did not change the prefix key (err %v)", err)
	}

	// The measurement window and the seed count shape only what happens
	// *after* the boundary: same warm state, same key.
	q = tiny
	q.Window *= 4
	if key, err := base.PrefixKey(q, 0); err != nil || key != baseKey {
		t.Errorf("changing window changed the prefix key (err %v)", err)
	}
	q = tiny
	q.Seeds = 5
	if key, err := base.PrefixKey(q, 0); err != nil || key != baseKey {
		t.Errorf("changing seed count changed the prefix key (err %v)", err)
	}

	// No hidden nondeterminism: identical points key identically.
	again, err := goldenPoint().PrefixKey(tiny, 0)
	if err != nil || again != baseKey {
		t.Fatalf("identical points key differently: %s vs %s (err %v)", again, baseKey, err)
	}
}

// TestPrefixKeyOfferedLoad: an open-system workload's offered load drives
// the cores during warmup, so it is part of the warm state and MUST flip
// the key — two load points restore from different checkpoints, and each
// restore stays bit-identical to its own uninterrupted run.
func TestPrefixKeyOfferedLoad(t *testing.T) {
	p := goldenPoint()
	p.Workload = "opensys:arrival=poisson,base=web-search,rate=2,size=256,queue=64"
	p.WorkloadSpec = p.Workload
	k2, err := p.PrefixKey(tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.wl = nil
	p.Workload = "opensys:arrival=poisson,base=web-search,rate=8,size=256,queue=64"
	p.WorkloadSpec = p.Workload
	k8, err := p.PrefixKey(tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k2 == k8 {
		t.Fatal("offered load did not change the prefix key: restores would alias across loads")
	}
}

// TestPrefixKeySeedStride pins the seed-index derivation to runSeeds'
// arithmetic: PrefixKey(q, s) must name exactly the warm state seed s's
// measurement starts from.
func TestPrefixKeySeedStride(t *testing.T) {
	base := goldenPoint()
	indexed, err := base.PrefixKey(tiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	shifted := base
	shifted.Config.Seed += 3 * seedStride
	direct, err := shifted.PrefixKey(tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	if indexed != direct {
		t.Fatalf("seed index 3 keys differently from an explicitly shifted seed:\n %s\n %s", indexed, direct)
	}
}

// TestPrefixKeyRoundTrip: a Point decoded from a report or campaign
// manifest must produce the same prefix key as the original — campaign
// workers share the checkpoint cache through exactly that round trip.
func TestPrefixKeyRoundTrip(t *testing.T) {
	p := goldenPoint()
	p.Seed = 1<<63 + 3 // would corrupt through a float64 round trip
	p.Config.Seed = p.Seed
	orig, err := p.PrefixKey(tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Point
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.PrefixKey(tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("prefix key not JSON-round-trip stable:\n before %s\n after  %s", orig, got)
	}
}

// TestPrefixKeyErrors: a point whose workload this process cannot resolve
// must refuse to key rather than alias by name alone.
func TestPrefixKeyErrors(t *testing.T) {
	p := goldenPoint()
	p.Workload = "No Such Workload"
	if _, err := p.PrefixKey(tiny, 0); err == nil {
		t.Fatal("unknown workload must not produce a prefix key")
	}
}
