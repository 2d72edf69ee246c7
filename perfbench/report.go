package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// cpuModel names the host CPU from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = " (modified)"
			}
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	return rev + dirty
}

// printReport writes the readable report: the host record, the run's
// counts, then every metric by name with its unit.
func (b *bench) printReport(metrics map[string]metric) {
	fmt.Printf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Printf("run: workload %s, seed %d, %d timed ops ok, %d set-ups\n", b.name, b.seed, len(b.ops), len(b.setups))
	if len(b.profiles) > 0 {
		fmt.Printf("spans and CPU profile in %s\n", b.dir)
	}
	fmt.Printf("fail_frac: %g (%d failed of %d attempted ops, set-ups included)\n",
		float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	switch {
	case b.tailPct == 100:
		fmt.Printf("point_s_tail is the maximum of %d op times (too few for 10 above it)\n", len(b.opSecs))
	case b.tailPct > 0:
		fmt.Printf("point_s_tail is p%.1f of %d op times (10 above it)\n", b.tailPct, len(b.opSecs))
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := metrics[k]
		note := ""
		if k == "noc.ns_per_flit_hop" && b.flitHops == 0 {
			note = "  (not applicable: 0 flit-hops, the fabric has no routers)"
		}
		fmt.Printf("%-32s %14.6g %s%s\n", k, m.Value, m.Unit, note)
	}
}

// writePins computes the Result digest of every workload at seeds
// 0..pinSeeds-1 along both paths the benchmark checks — nocout's public
// API in set-up and the benchmark's chip-layer op — and writes them as
// pins.json once the two agree everywhere.
func writePins(path, out string) error {
	pins := map[string]map[string]string{}
	for _, name := range workloadNames {
		pins[name] = map[string]string{}
		for s := uint64(0); s < pinSeeds; s++ {
			wl := newWorkload(name, s)
			dir := filepath.Join(out, "pin", fmt.Sprintf("%s-%d", name, s))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			refs, err := wl.setup(dir, 0, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: set-up: %w", name, s, err)
			}
			op, err := wl.op(0, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: op: %w", name, s, err)
			}
			if refs[s] != op.Digest || op.Seed != s {
				return fmt.Errorf("%s seed %d: op digest %s differs from set-up's %s", name, s, op.Digest, refs[s])
			}
			pins[name][fmt.Sprint(s)] = op.Digest
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", name, s, op.Digest)
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
