package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a chip layer, keyed by the op that made it
// ("setup", "op-N", "driver").
type span struct {
	Op      string `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the run began
	DurNS   int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced ops pay only the clock reads.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(op, name string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{op, name, start.Sub(l.t0).Nanoseconds(), d.Nanoseconds()})
}

// medianMS is the median duration in ms of the spans called name, taken
// from ops first and from set-up or drivers when no op made the call; 0
// when there is none.
func (l *spanLog) medianMS(name string) float64 {
	var ops, rest []float64
	for _, s := range l.spans {
		if s.Name != name {
			continue
		}
		ms := float64(s.DurNS) / 1e6
		if strings.HasPrefix(s.Op, "op-") {
			ops = append(ops, ms)
		} else {
			rest = append(rest, ms)
		}
	}
	if len(ops) == 0 {
		ops = rest
	}
	if len(ops) == 0 {
		return 0
	}
	return median(ops)
}

func (l *spanLog) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// layers are the host_share buckets: the simulator's packages by their
// last path element, the root package, the Go runtime, and other.
var layers = []string{"sim", "noc", "topo", "core", "cpu", "coherence", "cache", "mem", "workload", "ckpt", "nocout", "runtime", "other"}

// pkgOf returns the package path of a symbol as pprof prints it, e.g.
// "nocout/internal/sim" for "nocout/internal/sim.(*Pipe[...]).Pop".
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if i := strings.Index(head[slash+1:], "."); i >= 0 {
		return head[:slash+1+i]
	}
	return head
}

// bucketOf maps a package to its layer; "" marks the standard library
// outside the runtime, whose time belongs to the layer that called it.
func bucketOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "nocout":
		return "nocout"
	case strings.HasPrefix(pkg, "nocout/internal/"):
		name := strings.TrimPrefix(pkg, "nocout/internal/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
		return "other"
	case pkg == "main" || strings.HasPrefix(pkg, "nocout/"):
		return "other"
	}
	return ""
}

// mergeProfiles merges CPU profiles into one file at path with `go tool
// pprof -proto`, then removes the parts.
func mergeProfiles(path string, parts []string) error {
	merged, err := exec.Command("go", append([]string{"tool", "pprof", "-proto"}, parts...)...).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -proto: %w", err)
	}
	if err := os.WriteFile(path, merged, 0o644); err != nil {
		return err
	}
	for _, p := range parts {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

// hostShares buckets the CPU profile's samples by layer with `go tool
// pprof -traces`, in percent of all samples. A sample is charged to its
// leaf function's layer; a leaf in the standard library (flate inside
// NOC3 decode, crc32 inside the checkpoint codec) is charged to the
// nearest simulator frame above it.
func hostShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	totals := map[string]float64{}
	var sum float64
	var value float64
	var stack []string
	flush := func() {
		if len(stack) == 0 {
			return
		}
		b := "other"
		for _, fn := range stack {
			if l := bucketOf(pkgOf(fn)); l != "" {
				b = l
				break
			}
		}
		totals[b] += value
		sum += value
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		if !started {
			continue
		}
		// Generic instantiations print with spaces inside their names, so
		// only the first field of a trace's first line is split off.
		text := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		if text == "" {
			continue
		}
		if len(stack) == 0 {
			v, fn, _ := strings.Cut(text, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof trace value %q: %w", v, err)
			}
			value = float64(d)
			text = strings.TrimSpace(fn)
		}
		stack = append(stack, text)
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if sum == 0 {
		return nil, fmt.Errorf("profile %s has no samples", profile)
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 100 * totals[l] / sum
	}
	return shares, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
