package workload

import (
	"fmt"
	"strings"

	"nocout/internal/registry"
)

// workloads is the workload registry: every string a CLI flag, sweep
// spec, or config file can carry resolves here, case-insensitively and
// alias-aware. Workloads need no handle; theirs is the listing order.
var workloads = registry.New[uint8, Workload]("workload", "workload")

func init() {
	// The paper's six, in figure order, with their common CLI spellings.
	for _, b := range []struct {
		p       Params
		aliases []string
	}{
		{DataServing, []string{"data-serving", "cassandra"}},
		{MapReduceC, []string{"mapred-c"}},
		{MapReduceW, []string{"mapred-w"}},
		{SATSolver, []string{"sat-solver", "sat"}},
		{WebFrontend, []string{"web-frontend", "frontend"}},
		{WebSearch, []string{"web-search", "websearch", "search"}},
	} {
		mustRegister(Synth(b.p, b.aliases...))
	}
	// Worked examples of the heterogeneous families, registered through
	// the same public path user workloads use. The Figure* studies pin the
	// builtin six explicitly, so these never shift regenerated paper
	// numbers.
	mustRegister(ConsolidatedMix())
	mustRegister(MapReducePhased())
	registry.Must(schemes.Register(scheme{"trace", func(path string) (Workload, error) {
		t, err := LoadTrace(path)
		if err != nil {
			return nil, err
		}
		return t, nil
	}}))
}

// Register adds a workload to the registry so that every name-based entry
// point (Parse, sweep specs, CLI flags) can resolve it. The name and
// aliases must be non-empty and unique case-insensitively, and must not
// contain ':' (reserved for schemes like "trace:<path>"). Safe for
// concurrent use.
func Register(w Workload) error {
	for _, s := range append([]string{w.Name()}, w.Aliases()...) {
		if strings.Contains(s, ":") {
			return fmt.Errorf("workload: name %q contains ':' (reserved for schemes)", registry.Key(s))
		}
	}
	_, err := workloads.Register(w)
	return err
}

// mustRegister is Register for the package's own init-time registrations.
func mustRegister(w Workload) {
	if err := Register(w); err != nil {
		panic(err)
	}
}

// All returns every registered workload: the paper's six in figure order,
// then the example families, then user registrations in registration
// order.
func All() []Workload { return workloads.All() }

// Names returns the registered workload names in registration order.
func Names() []string { return workloads.Names() }

// Workload name schemes: a scheme owns every name spelled
// "<scheme>:<spec>" and parses the spec into a Workload. The builtin
// "trace:<path>" loads a recorded trace file; the opensys package
// registers "opensys:" through RegisterScheme.
var schemes = registry.New[uint8, scheme]("workload", "scheme")

// scheme is a registered name scheme and its spec parser.
type scheme struct {
	name  string
	parse func(spec string) (Workload, error)
}

func (s scheme) Name() string      { return s.name }
func (s scheme) Aliases() []string { return nil }

// RegisterScheme adds a workload name scheme: Parse hands every
// "<name>:<spec>" string to fn (spec is the part after the colon,
// untrimmed). The scheme name is case-insensitive, must be non-empty,
// colon-free, and not already taken ("trace" is builtin). Parsed
// workloads must Name() themselves back to a string the scheme resolves,
// so sweep points and campaign manifests rehydrate by name alone.
func RegisterScheme(name string, fn func(spec string) (Workload, error)) error {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" || strings.Contains(key, ":") {
		return fmt.Errorf("workload: invalid scheme name %q", name)
	}
	if fn == nil {
		return fmt.Errorf("workload: scheme %q needs a parse function", key)
	}
	_, err := schemes.Register(scheme{key, fn})
	return err
}

// Parse resolves a workload from any registered spelling — names and
// aliases, case-insensitively ("data-serving", "websearch", "WEB Search")
// — loads a recorded trace via the "trace:<path>" scheme, or hands
// "<scheme>:<spec>" names to their registered scheme (e.g.
// "opensys:arrival=poisson,...").
func Parse(s string) (Workload, error) {
	trimmed := strings.TrimSpace(s)
	// A scheme name sits flush against its colon: "trace :x" is no trace.
	if i := strings.IndexByte(trimmed, ':'); i > 0 && strings.TrimSpace(trimmed[:i]) == trimmed[:i] {
		if _, sc, ok := schemes.Lookup(trimmed[:i]); ok {
			return sc.parse(trimmed[i+1:])
		}
	}
	_, w, ok := workloads.Lookup(trimmed)
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (want %s, an alias, trace:<path>, or a registered scheme)",
			s, strings.Join(Names(), " | "))
	}
	return w, nil
}
