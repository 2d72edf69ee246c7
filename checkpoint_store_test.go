package nocout

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// writeCorrupt replaces a stored checkpoint with bytes that parse as no
// container at all.
func writeCorrupt(path string) error {
	return os.WriteFile(path, []byte("NOCKnonsense"), 0o644)
}

// storeSweep builds the small two-design sweep the store tests measure,
// at quality q. Each (variant, seed) pair is one warm-state prefix.
func storeSweep(t *testing.T, q Quality) Sweep {
	t.Helper()
	mesh := DefaultConfig(Mesh)
	mesh.Cores = 16
	mesh.Seed = 1
	noco := DefaultConfig(NOCOut)
	noco.Cores = 16
	noco.Seed = 1
	exp := NewExperiment(
		WithTitle("checkpointed sweep"),
		WithWorkloads("MapReduce-C"),
		WithQuality(q),
		WithVariant("Mesh", mesh),
		WithVariant("NOC-Out", noco),
	)
	sw, err := exp.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointedSweepByteIdentical is the subsystem's end-to-end
// acceptance check: a sweep run through the checkpoint store produces a
// Report byte-identical to the same sweep without it — first on a cold
// cache (every prefix warmed and stored), then on a warm cache (every
// prefix restored), then across a window change (the multi-window sweep:
// same warm states, longer measurement, all hits).
func TestCheckpointedSweepByteIdentical(t *testing.T) {
	q := Quality{Warmup: 2500, Window: 3000, Seeds: 1}
	ctx := context.Background()

	plain, err := (&Runner{}).Run(ctx, storeSweep(t, q))
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, plain)

	st, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := (&Runner{Checkpoints: st}).Run(ctx, storeSweep(t, q))
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, cold); !bytes.Equal(got, want) {
		t.Fatalf("cold checkpointed report differs from plain report:\n%s\nvs\n%s", got, want)
	}
	hits, misses, unkeyed := st.Stats()
	if hits != 0 || misses != 2 || unkeyed != 0 {
		t.Fatalf("cold pass stats: hits %d, misses %d, unkeyed %d; want 0, 2, 0", hits, misses, unkeyed)
	}
	if infos, err := st.List(); err != nil || len(infos) != 2 {
		t.Fatalf("store holds %d checkpoints (err %v), want 2", len(infos), err)
	}

	warm, err := (&Runner{Checkpoints: st}).Run(ctx, storeSweep(t, q))
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, warm); !bytes.Equal(got, want) {
		t.Fatalf("warm checkpointed report differs from plain report")
	}
	if hits, _, _ := st.Stats(); hits != 2 {
		t.Fatalf("warm pass restored %d prefixes, want 2", hits)
	}

	// The multi-window sweep: a longer window shares the same prefixes,
	// so every point restores — warmup cycles are paid exactly once for
	// any number of windows.
	wide := q
	wide.Window *= 2
	plainWide, err := (&Runner{}).Run(ctx, storeSweep(t, wide))
	if err != nil {
		t.Fatal(err)
	}
	ckWide, err := (&Runner{Checkpoints: st}).Run(ctx, storeSweep(t, wide))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, ckWide), reportJSON(t, plainWide)) {
		t.Fatalf("wide-window checkpointed report differs from plain report")
	}
	hits, misses, _ = st.Stats()
	if hits != 4 || misses != 2 {
		t.Fatalf("after the wide window: hits %d, misses %d; want 4, 2", hits, misses)
	}
}

// TestCheckpointStoreRecompute: the override policy re-warms and
// overwrites even when an entry exists.
func TestCheckpointStoreRecompute(t *testing.T) {
	q := Quality{Warmup: 1500, Window: 1000, Seeds: 1}
	ctx := context.Background()
	st, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := storeSweep(t, q)
	sw.Points = sw.Points[:1]
	if _, err := (&Runner{Checkpoints: st}).Run(ctx, sw); err != nil {
		t.Fatal(err)
	}
	st.Recompute = true
	if _, err := (&Runner{Checkpoints: st}).Run(ctx, sw); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := st.Stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("recompute stats: hits %d, misses %d; want 0, 2", hits, misses)
	}
}

// TestCheckpointStoreSelfHeals: a corrupt cache entry is a miss — the
// point re-warms, overwrites the entry, and the next pass hits it.
func TestCheckpointStoreSelfHeals(t *testing.T) {
	q := Quality{Warmup: 1500, Window: 1000, Seeds: 1}
	ctx := context.Background()
	st, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := storeSweep(t, q)
	sw.Points = sw.Points[:1]
	plain, err := (&Runner{}).Run(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Checkpoints: st}).Run(ctx, sw); err != nil {
		t.Fatal(err)
	}
	infos, err := st.List()
	if err != nil || len(infos) != 1 {
		t.Fatalf("stored %d checkpoints (err %v)", len(infos), err)
	}
	// Scribble over the entry: restore must fail cleanly, the run must
	// still produce the exact report, and the store must heal.
	if err := writeCorrupt(st.path(infos[0].Key)); err != nil {
		t.Fatal(err)
	}
	rep, err := (&Runner{Checkpoints: st}).Run(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, rep), reportJSON(t, plain)) {
		t.Fatal("report differs after healing a corrupt checkpoint")
	}
	healed, err := (&Runner{Checkpoints: st}).Run(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, healed), reportJSON(t, plain)) {
		t.Fatal("report differs after restoring the healed checkpoint")
	}
	hits, misses, _ := st.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("self-heal stats: hits %d, misses %d; want 1, 2", hits, misses)
	}
}

// TestCheckpointSurvivesTraceConversion: a legacy NOC2 trace and its
// -trace-convert output are one recording, so they share one warm
// checkpoint. A checkpointed Runner warms the prefix on the NOC2 file;
// the same sweep on the converted file restores it (a hit) and reports
// exactly what an uncheckpointed run does.
func TestCheckpointSurvivesTraceConversion(t *testing.T) {
	noc2 := noc2Fixture
	noc3 := filepath.Join(t.TempDir(), "conv.noctrace")
	if err := ConvertTrace(noc2, noc3); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	sweep := func(path string) Sweep {
		sw, err := NewExperiment(
			WithVariant("Mesh", cfg),
			WithWorkloads("trace:"+path),
			WithQuality(Quality{Warmup: 2500, Window: 3000, Seeds: 1}),
		).Sweep()
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	ctx := context.Background()
	st, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Checkpoints: st}).Run(ctx, sweep(noc2)); err != nil {
		t.Fatal(err)
	}
	warm, err := (&Runner{Checkpoints: st}).Run(ctx, sweep(noc3))
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, unkeyed := st.Stats(); hits != 1 || misses != 1 || unkeyed != 0 {
		t.Fatalf("store stats: hits %d, misses %d, unkeyed %d; want 1, 1, 0", hits, misses, unkeyed)
	}
	plain, err := (&Runner{}).Run(ctx, sweep(noc3))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, warm), reportJSON(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("restored report differs from the uncheckpointed one:\n%s\nvs\n%s", got, want)
	}
}
