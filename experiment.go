package nocout

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"

	"nocout/internal/workload"
)

// This file defines the declarative half of the experiment engine: an
// Experiment is a sweep *specification* — variants (named configurations)
// crossed with workloads and core counts — built with functional options
// and expanded into a Sweep of fully resolved Points. The Runner
// (runner.go) executes a Sweep; the Report (report.go) holds the results.
// Every Figure*/-Study/-Ablation entry point in experiments.go is a thin
// spec over this engine, and user studies are meant to be the same.

// Variant is a named configuration inside a sweep, e.g. a design at its
// Table 1 defaults, or an ablation point ("4 banks/tile").
type Variant struct {
	Name   string
	Config Config
}

// Point is one cell of a sweep's cartesian product: a variant measured
// under one workload at one core count, with a fully resolved Config.
type Point struct {
	Variant  string `json:"variant"`
	Design   Design `json:"design"`
	Workload string `json:"workload"`
	// Hierarchy is the point's memory hierarchy (omitted for the
	// SharedNUCA baseline, so pre-hierarchy reports round-trip).
	Hierarchy HierarchyID `json:"hierarchy,omitempty"`
	// Cores is the requested core count; 0 means the variant's own (the
	// resolved value is Config.Cores).
	Cores int    `json:"requested_cores,omitempty"`
	Seed  uint64 `json:"seed"`
	// Config is the resolved configuration the point runs; it is part of
	// the JSON encoding so a report fully reproduces its runs.
	Config Config `json:"config"`
	// WorkloadSpec records the parse spec the workload came from when it
	// is not just the name — today the "trace:<path>" scheme —
	// so a campaign worker in another process can rehydrate the point.
	WorkloadSpec string `json:"workload_spec,omitempty"`
	// Unlimited records WithUnlimitedCores, so a rehydrated point
	// re-applies the software-scalability cap lift (it changes behaviour,
	// so it is part of the point's cache identity).
	Unlimited bool `json:"unlimited,omitempty"`

	wl workload.Workload
}

// dedupKey identifies the point within its sweep; expansion dedups on it.
// The content-addressed identity the campaign cache uses is Point.Key
// (identity.go), which hashes the full resolved configuration instead.
func (p Point) dedupKey() string {
	return fmt.Sprintf("%s|%s|%d|%d", p.Variant, p.Workload, p.Cores, p.Hierarchy)
}

// String describes the point for progress displays.
func (p Point) String() string {
	return fmt.Sprintf("%s / %s / %d cores", p.Variant, p.Workload, p.Config.Cores)
}

// Sweep is a fully expanded experiment: the list of points to measure and
// the effort to measure them at.
type Sweep struct {
	Title   string
	Quality Quality
	Points  []Point
}

// Len returns the number of points.
func (s Sweep) Len() int { return len(s.Points) }

// Experiment is a declarative sweep specification. Build one with
// NewExperiment and functional options, then Run it (or Sweep it and hand
// the result to a custom Runner):
//
//	rep, err := nocout.NewExperiment(
//		nocout.WithDesigns(nocout.Mesh, nocout.NOCOut),
//		nocout.WithWorkloads("Data Serving"),
//		nocout.WithCoreCounts(16, 32, 64),
//		nocout.WithQuality(nocout.Quick),
//	).Run(ctx)
type Experiment struct {
	title        string
	variants     []Variant
	workloads    []string
	workloadVals []workload.Workload
	coreCounts   []int
	hierarchies  []HierarchyID
	offeredLoads []float64
	quality      Quality
	seed         *uint64
	unlimited    bool
	configure    func(*Config, Point)
	ckptDir      string
}

// Option configures an Experiment.
type Option func(*Experiment)

// NewExperiment builds a sweep specification. Defaults: Quick quality,
// the full six-workload suite, each variant's own core count and seed.
func NewExperiment(opts ...Option) *Experiment {
	e := &Experiment{quality: Quick}
	for _, o := range opts {
		o(e)
	}
	return e
}

// WithTitle names the experiment; the title heads its Report.
func WithTitle(title string) Option {
	return func(e *Experiment) { e.title = title }
}

// WithDesigns adds one variant per design at its Table 1 defaults, named
// by the design's figure name.
func WithDesigns(ds ...Design) Option {
	return func(e *Experiment) {
		for _, d := range ds {
			e.variants = append(e.variants, Variant{Name: d.String(), Config: DefaultConfig(d)})
		}
	}
}

// WithVariant adds one named configuration, for sweeps over something
// other than the stock designs (link widths, banking, NOC-Out shapes).
func WithVariant(name string, cfg Config) Option {
	return func(e *Experiment) {
		e.variants = append(e.variants, Variant{Name: name, Config: cfg})
	}
}

// WithWorkloads restricts the sweep to the named workloads: any
// registered name or alias (case-insensitive), or a recorded capture
// via "trace:<path>". Default: every registered workload in
// registration order.
func WithWorkloads(names ...string) Option {
	return func(e *Experiment) { e.workloads = append(e.workloads, names...) }
}

// WithWorkloadValues adds constructed Workload values — an unregistered
// Mix, a loaded TraceFile, a user implementation — to the sweep after any
// named ones.
func WithWorkloadValues(ws ...Workload) Option {
	return func(e *Experiment) { e.workloadVals = append(e.workloadVals, ws...) }
}

// WithOfferedLoads crosses the sweep with open-system arrival rates
// (requests per 1000 cycles per core): every workload in the sweep is
// re-derived at each load through the RateScaled contract. Every
// workload must therefore be open-system (the "opensys:" family or a
// user RateScaled implementation) — mixing in a closed-loop workload is
// a hard error at expansion, not a silently flat curve. Derived points
// are named by their canonical spec, so the rate is part of the sweep
// cell and of the campaign cache identity.
func WithOfferedLoads(loads ...float64) Option {
	return func(e *Experiment) { e.offeredLoads = append(e.offeredLoads, loads...) }
}

// WithCoreCounts crosses the sweep with chip core counts. Default: each
// variant's own configured core count.
func WithCoreCounts(ns ...int) Option {
	return func(e *Experiment) { e.coreCounts = append(e.coreCounts, ns...) }
}

// WithHierarchies crosses the sweep with memory hierarchies: every
// variant runs once per hierarchy, with the hierarchy's DefaultConfig
// tuning applied on top of the variant's. With more than one hierarchy
// the variant names gain a "/<hierarchy>" suffix so report cells stay
// addressable; a single hierarchy rewrites the variants in place.
// Default: each variant's own configured hierarchy (SharedNUCA unless the
// variant's Config says otherwise).
func WithHierarchies(hs ...HierarchyID) Option {
	return func(e *Experiment) { e.hierarchies = append(e.hierarchies, hs...) }
}

// WithCheckpoints caches warm state in the checkpoint store at dir:
// points sharing a measurement prefix (same system, seed, workload, and
// warmup — see Point.PrefixKey) run warmup once, snapshot, and restore
// everywhere else, bit-identically. The Report is byte-identical with or
// without the cache; only wall-clock time changes. Multi-window sweeps
// and re-runs of the same experiment are the big winners.
func WithCheckpoints(dir string) Option {
	return func(e *Experiment) { e.ckptDir = dir }
}

// WithQuality sets the simulation effort (default Quick).
func WithQuality(q Quality) Option {
	return func(e *Experiment) { e.quality = q }
}

// WithSeed overrides every variant's base seed (any value, 0 included).
func WithSeed(s uint64) Option {
	return func(e *Experiment) { e.seed = &s }
}

// WithUnlimitedCores lifts each workload's software scalability cap to
// the chip's core count, for §7.1-style studies that assume software able
// to use every core.
func WithUnlimitedCores() Option {
	return func(e *Experiment) { e.unlimited = true }
}

// WithConfigure installs a hook that may adjust each point's Config after
// expansion — e.g. shaping the NOC-Out organization or scaling memory
// channels with the core count. The hook sees the point's identity
// (variant, workload, cores) and mutates the config in place.
func WithConfigure(f func(cfg *Config, p Point)) Option {
	return func(e *Experiment) { e.configure = f }
}

// Sweep expands the specification into the cartesian product of
// variants × workloads × core counts, resolving workload names, applying
// the configure hook, and dropping duplicate points.
func (e *Experiment) Sweep() (Sweep, error) {
	if len(e.variants) == 0 {
		return Sweep{}, fmt.Errorf("nocout: experiment has no variants; use WithDesigns or WithVariant")
	}
	variants, err := e.expandHierarchies()
	if err != nil {
		return Sweep{}, err
	}
	names := e.workloads
	if len(names) == 0 && len(e.workloadVals) == 0 {
		names = Workloads()
	}
	wls := make([]workload.Workload, 0, len(names)+len(e.workloadVals))
	// Points are keyed by workload *name*, so two distinct workloads
	// sharing one name would silently collapse to whichever expands
	// first — easy to hit since a trace replays under its source's
	// name. Equal spellings of the same workload dedup; genuinely
	// different sources with one name are a hard error.
	byName := map[string]workload.Workload{}
	add := func(w workload.Workload) error {
		prev, seen := byName[w.Name()]
		if !seen {
			byName[w.Name()] = w
			wls = append(wls, w)
			return nil
		}
		if !sameWorkload(prev, w) {
			return fmt.Errorf("nocout: two different workloads named %q in one sweep; record or register under a distinct name", w.Name())
		}
		return nil
	}
	// specOf remembers the parse spec behind non-name workloads
	// (traces), keyed by resolved name; points carry it so campaign
	// workers in other processes can rehydrate them.
	specOf := map[string]string{}
	for _, n := range names {
		w, err := workload.Parse(n)
		if err != nil {
			return Sweep{}, err
		}
		if err := add(w); err != nil {
			return Sweep{}, err
		}
		if traceSpec(n) {
			specOf[w.Name()] = strings.TrimSpace(n)
		}
	}
	for _, w := range e.workloadVals {
		if err := add(w); err != nil {
			return Sweep{}, err
		}
	}
	if len(e.offeredLoads) > 0 {
		expanded := make([]workload.Workload, 0, len(wls)*len(e.offeredLoads))
		for _, w := range wls {
			rs, ok := workload.RateScaledOf(w)
			if !ok {
				return Sweep{}, fmt.Errorf("nocout: WithOfferedLoads needs open-system workloads; %q is closed-loop (wrap it in an opensys: spec)", w.Name())
			}
			for _, load := range e.offeredLoads {
				if load <= 0 || math.IsNaN(load) || math.IsInf(load, 0) {
					return Sweep{}, fmt.Errorf("nocout: offered load %v must be a positive finite requests/kcycle", load)
				}
				expanded = append(expanded, rs.WithOfferedLoad(load))
			}
		}
		wls = expanded
	}
	counts := e.coreCounts
	if len(counts) == 0 {
		counts = []int{0}
	}

	sw := Sweep{Title: e.title, Quality: e.quality}
	seen := make(map[string]bool)
	for _, v := range variants {
		for _, w := range wls {
			for _, n := range counts {
				cfg := v.Config
				if n > 0 {
					cfg.Cores = n
				}
				if e.seed != nil {
					cfg.Seed = *e.seed
				}
				p := Point{
					Variant:  v.Name,
					Design:   cfg.Design,
					Workload: w.Name(),
					Cores:    n,
				}
				if e.configure != nil {
					e.configure(&cfg, p)
				}
				wl := w
				if e.unlimited {
					wl = workload.Unlimited(w)
				}
				p.Seed = cfg.Seed
				p.Config = cfg
				p.Hierarchy = cfg.Hierarchy
				p.WorkloadSpec = specOf[w.Name()]
				p.Unlimited = e.unlimited
				p.wl = wl
				if seen[p.dedupKey()] {
					continue
				}
				seen[p.dedupKey()] = true
				sw.Points = append(sw.Points, p)
			}
		}
	}
	return sw, nil
}

// expandHierarchies crosses the variant list with WithHierarchies'
// hierarchy dimension (a no-op without one), resolving each hierarchy
// through the registry so unknown handles fail before any simulation.
func (e *Experiment) expandHierarchies() ([]Variant, error) {
	if len(e.hierarchies) == 0 {
		return e.variants, nil
	}
	out := make([]Variant, 0, len(e.variants)*len(e.hierarchies))
	for _, v := range e.variants {
		for _, h := range e.hierarchies {
			hier, err := HierarchyOf(h)
			if err != nil {
				return nil, err
			}
			cfg := hier.DefaultConfig(v.Config)
			cfg.Hierarchy = h
			name := v.Name
			if len(e.hierarchies) > 1 {
				name = v.Name + "/" + hier.Name()
			}
			out = append(out, Variant{Name: name, Config: cfg})
		}
	}
	return out, nil
}

// sameWorkload reports whether two equally-named workloads are the same
// source. Synthetics compare on their calibration block alone — alias
// metadata doesn't change behaviour, and a registered synthetic must
// dedup against a freshly wrapped copy of the same Params.
func sameWorkload(a, b workload.Workload) bool {
	if sa, ok := a.(workload.Synthetic); ok {
		if sb, ok := b.(workload.Synthetic); ok {
			return sa.P == sb.P
		}
	}
	return reflect.DeepEqual(a, b)
}

// Run expands the experiment and executes it with a default Runner.
func (e *Experiment) Run(ctx context.Context) (*Report, error) {
	sw, err := e.Sweep()
	if err != nil {
		return nil, err
	}
	rn := &Runner{}
	if e.ckptDir != "" {
		st, err := NewCheckpointStore(e.ckptDir)
		if err != nil {
			return nil, err
		}
		rn.Checkpoints = st
	}
	return rn.Run(ctx, sw)
}
