package nocout

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// This file is the cross-workload conformance suite: every registered
// workload — builtin synthetic, the Mix/Phased examples, and anything
// added through RegisterWorkload — is held to the same behavioral
// contract, and the trace facility is proven end to end (a capture of a
// builtin reproduces the builtin's Result exactly through Run, a sweep,
// and the "trace:<path>" scheme).

// TestWorkloadRegistryComplete pins the registered workload space: the
// paper's six in figure order, then the example families.
func TestWorkloadRegistryComplete(t *testing.T) {
	want := []string{"Data Serving", "MapReduce-C", "MapReduce-W", "SAT Solver",
		"Web Frontend", "Web Search", "Consolidated", "MapReduce-Phased",
		"Open Poisson", "Open MMPP", "Open Burst"}
	ws := RegisteredWorkloads()
	if len(ws) < len(want) {
		t.Fatalf("registry has %d workloads, want >= %d", len(ws), len(want))
	}
	for i, name := range want {
		if ws[i].Name() != name {
			t.Errorf("RegisteredWorkloads()[%d] = %q, want %q", i, ws[i].Name(), name)
		}
	}
	// The satellite aliases the issue names explicitly.
	for alias, name := range map[string]string{
		"data-serving": "Data Serving",
		"websearch":    "Web Search",
		"mix":          "Consolidated",
		"phased":       "MapReduce-Phased",
		"open-poisson": "Open Poisson",
		"open-mmpp":    "Open MMPP",
		"open-burst":   "Open Burst",
	} {
		w, err := ParseWorkload(alias)
		if err != nil || w.Name() != name {
			t.Errorf("ParseWorkload(%q) = (%v, %v), want %q", alias, w, err, name)
		}
	}
}

// TestWorkloadConformance is the cross-workload contract: deterministic
// streams, a sane scalability limit, valid core parameters with the
// seed threaded through, a prewarmable layout, and name round-trips
// through the registry.
func TestWorkloadConformance(t *testing.T) {
	for _, w := range RegisteredWorkloads() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()

			// Name and alias round-trips, case-insensitively.
			for _, spelling := range append([]string{w.Name(), strings.ToUpper(w.Name())}, w.Aliases()...) {
				got, err := ParseWorkload(spelling)
				if err != nil || got.Name() != w.Name() {
					t.Fatalf("ParseWorkload(%q) = (%v, %v), want %q", spelling, got, err, w.Name())
				}
			}

			if mc := w.MaxCores(); mc < 1 {
				t.Fatalf("MaxCores = %d", mc)
			}

			// CoreParams: valid for the cpu model, seed threaded through,
			// deterministic.
			for _, core := range []int{0, 1, 63} {
				cp := w.CoreParams(core, 7)
				if cp.Seed != 7 {
					t.Fatalf("core %d: seed not threaded: %+v", core, cp)
				}
				if cp.Width < 1 || cp.ROB < cp.Width || cp.BaseCPI < 1.0/float64(cp.Width) ||
					math.IsNaN(cp.BaseCPI) || cp.DepChance < 0 || cp.DepChance > 1 {
					t.Fatalf("core %d: invalid params %+v", core, cp)
				}
				if cp != w.CoreParams(core, 7) {
					t.Fatalf("core %d: CoreParams not deterministic", core)
				}
			}

			// Streams: same (core, seed) => identical instruction sequence.
			// KindIdle (3) is the open-system "no work pending" answer and is
			// as valid as the ALU/load/store kinds.
			a, b := w.StreamFor(1, 42), w.StreamFor(1, 42)
			for i := 0; i < 2000; i++ {
				x, y := a.Next(), b.Next()
				if x != y {
					t.Fatalf("stream diverged at %d: %+v vs %+v", i, x, y)
				}
				if x.Kind > 3 {
					t.Fatalf("instruction %d has invalid kind %d", i, x.Kind)
				}
			}

			// Layout: prewarmable shared regions and per-core locals.
			lay := w.Layout()
			if lay.Instr.Size == 0 {
				t.Fatal("layout has no instruction footprint")
			}
			if lay.Local == nil {
				t.Fatal("layout has no local-region function")
			}
			for _, core := range []int{0, 1, w.MaxCores() - 1} {
				if r := lay.Local(core); r.Size == 0 {
					t.Fatalf("core %d has an empty local region", core)
				}
			}
		})
	}
}

// TestWorkloadsThroughEngineAndJSON measures every registered workload
// through the sweep engine on a small mesh and round-trips the Report
// through JSON: results (per-member breakdowns included) must survive
// encoding, and repeated runs must be bit-identical.
func TestWorkloadsThroughEngineAndJSON(t *testing.T) {
	spec := func() *Experiment {
		return NewExperiment(
			WithTitle("workload conformance"),
			WithVariant("Mesh", func() Config {
				cfg := DefaultConfig(Mesh)
				cfg.Cores = 8
				return cfg
			}()),
			WithQuality(confQ), // all registered workloads: the default set
		)
	}
	rep, err := spec().Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range RegisteredWorkloads() {
		res, ok := rep.Get("Mesh", w.Name(), 0)
		if !ok || res.AggIPC <= 0 {
			t.Fatalf("%s: no measurement (%v, %v)", w.Name(), res, ok)
		}
	}

	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		if !reflect.DeepEqual(rep.Results[i].Result, back.Results[i].Result) {
			t.Fatalf("result %d did not survive JSON:\n%+v\n%+v", i, rep.Results[i].Result, back.Results[i].Result)
		}
	}

	again, err := spec().Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Results, again.Results) {
		t.Fatal("workload sweep is not deterministic")
	}
}

// TestMixPerMemberBreakdown checks the heterogeneous accounting: the
// Consolidated example reports one IPC per member and they sum to the
// aggregate.
func TestMixPerMemberBreakdown(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	res, err := Run(cfg, "mix", confQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorkloadIPC) != 3 {
		t.Fatalf("breakdown = %v, want the three Consolidated members", res.PerWorkloadIPC)
	}
	sum := 0.0
	for name, ipc := range res.PerWorkloadIPC {
		if ipc <= 0 {
			t.Fatalf("member %s has no throughput", name)
		}
		sum += ipc
	}
	if math.Abs(sum-res.AggIPC) > 1e-9 {
		t.Fatalf("member IPCs sum to %.6f, aggregate is %.6f", sum, res.AggIPC)
	}
	if !strings.Contains(res.String(), "Data Serving") {
		t.Fatalf("String() should surface the breakdown: %s", res)
	}

	// Homogeneous runs must stay breakdown-free.
	homog, err := Run(cfg, "MapReduce-C", confQ)
	if err != nil {
		t.Fatal(err)
	}
	if homog.PerWorkloadIPC != nil {
		t.Fatalf("homogeneous run grew a breakdown: %v", homog.PerWorkloadIPC)
	}
}

// TestTraceReplayReproducesBuiltin is the trace acceptance contract: a
// workload recorded to a NOC3 file and resolved through the
// "trace:<path>" scheme reproduces the builtin's Quick-quality Result
// bit for bit — through Run and through a NewExperiment sweep (the CLI
// resolves through the same ParseWorkload path). O(block) replay changes
// memory behaviour, never measurements.
func TestTraceReplayReproducesBuiltin(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	// A quick-quality run steps Warmup+Window cycles and fetch consumes
	// at most 3 instructions per cycle, so this recording never wraps.
	perCore := int(Quick.Warmup+Quick.Window) * 3
	src, err := ParseWorkload("MapReduce-C")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mrc.noctrace")
	if err := RecordTraceFile(path, src, cfg.Cores, perCore, cfg.Seed); err != nil {
		t.Fatal(err)
	}

	want, err := Run(cfg, "MapReduce-C", Quick)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, "trace:"+path, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("trace replay diverged from the builtin:\nbuiltin %+v\nreplay  %+v", want, got)
	}

	rep, err := NewExperiment(
		WithTitle("trace replay"),
		WithVariant("Mesh", cfg),
		WithWorkloads("trace:"+path),
		WithQuality(Quick),
	).Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	// The replay reports the recorded source's name.
	swept := rep.MustGet("Mesh", "MapReduce-C", 0)
	if !reflect.DeepEqual(want, swept) {
		t.Fatalf("sweep replay diverged from the builtin:\nbuiltin %+v\nreplay  %+v", want, swept)
	}
}

// noc2Fixture is the committed legacy NOC2 capture (see its README):
// the Consolidated mix, 3 cores x 700 instructions, seed 9.
const noc2Fixture = "internal/workload/testdata/consolidated-3x700-seed9.noc2"

// capCores caps a workload's software scalability limit, so a builtin
// runs on exactly as many cores as a recording of it holds.
type capCores struct {
	Workload
	n int
}

func (c capCores) MaxCores() int    { return c.n }
func (c capCores) Unwrap() Workload { return c.Workload }

// TestNOC3TraceReplayReproducesBuiltin: every way a recording reaches
// the NOC3 container — the legacy NOC2 fixture (converted in memory on
// load), its -trace-convert output, and a direct NOC3 recording of the
// same source and parameters — replays the builtin's Result bit for bit
// and fingerprints identically, so a Point's content key, and with it
// every campaign/checkpoint cache entry, survives a NOC2 -> NOC3
// migration.
func TestNOC3TraceReplayReproducesBuiltin(t *testing.T) {
	const cores, perCore, seed = 3, 700, 9
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 4 // the smallest mesh; the recording enables 3 of its cores
	cfg.Seed = seed
	// Fetch consumes at most 3 instructions per cycle, so a run of
	// 700/3 cycles never wraps the recording.
	q := Quality{Warmup: 100, Window: perCore/3 - 100, Seeds: 1}
	src, err := ParseWorkload("mix")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	conv := filepath.Join(dir, "conv.noctrace")
	if err := ConvertTrace(noc2Fixture, conv); err != nil {
		t.Fatal(err)
	}
	noc3 := filepath.Join(dir, "mix.noctrace")
	if err := RecordTraceFile(noc3, src, cores, perCore, seed); err != nil {
		t.Fatal(err)
	}

	want := RunWorkload(cfg, capCores{src, cores}, q)
	if want.ActiveCores != cores {
		t.Fatalf("builtin ran on %d cores, want %d", want.ActiveCores, cores)
	}
	var fps []string
	for _, path := range []string{noc2Fixture, conv, noc3} {
		w, err := LoadTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := RunWorkload(cfg, w, q); !reflect.DeepEqual(want, got) {
			t.Fatalf("replay of %s diverged from the builtin:\nbuiltin %+v\nreplay  %+v", path, want, got)
		}
		fp, err := FingerprintWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, string(fp))
	}
	if fps[0] != fps[1] || fps[1] != fps[2] {
		t.Fatalf("fingerprints diverge across formats:\n%s\n%s\n%s", fps[0], fps[1], fps[2])
	}
}

// TestNOC3TraceReplayPreservesMixBreakdown: a NOC3 recording of a
// heterogeneous workload replays with the recorded member attribution.
func TestNOC3TraceReplayPreservesMixBreakdown(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 8
	mix, err := ParseWorkload("Consolidated")
	if err != nil {
		t.Fatal(err)
	}
	perCore := int(confQ.Warmup+confQ.Window) * 3
	path := filepath.Join(t.TempDir(), "mix3.noctrace")
	if err := RecordTraceFile(path, mix, cfg.Cores, perCore, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	tf, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	want := RunWorkload(cfg, mix, confQ)
	got := RunWorkload(cfg, tf, confQ)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("NOC3 mix replay diverged:\nlive   %+v\nreplay %+v", want, got)
	}
	if len(got.PerWorkloadIPC) != 3 {
		t.Fatalf("replayed breakdown = %v", got.PerWorkloadIPC)
	}
}

// TestUnlimitedWorkloadFacade pins the cap-lifting wrapper's public
// behaviour: RunUnlimited enables every core for a 16-core-limited
// workload without touching the underlying registration.
func TestUnlimitedWorkloadFacade(t *testing.T) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 32
	res, err := RunUnlimited(cfg, "Web Search", confQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveCores != 32 {
		t.Fatalf("unlimited run enabled %d cores, want 32", res.ActiveCores)
	}
	capped, err := Run(cfg, "Web Search", confQ)
	if err != nil {
		t.Fatal(err)
	}
	if capped.ActiveCores != 16 {
		t.Fatalf("the registered workload must stay capped at 16, got %d", capped.ActiveCores)
	}
}
