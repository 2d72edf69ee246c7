package nocout

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nocout/internal/workload"
)

// This file benchmarks the workload layer: raw per-stream generation
// cost for every registered workload, trace decode, and a full
// Quick-quality chip measurement driven by a recorded trace vs the live
// synthetic generator. CI archives the results as BENCH_workload.json so the
// workload layer's perf trajectory is tracked PR over PR alongside the
// kernel's.

// BenchmarkWorkloadStream measures stream generation for every
// registered workload plus a one-block NOC3 trace replay; ns/op is ns
// per generated instruction.
func BenchmarkWorkloadStream(b *testing.B) {
	for _, w := range RegisteredWorkloads() {
		b.Run(w.Name(), func(b *testing.B) {
			st := w.StreamFor(0, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Next()
			}
		})
	}
	b.Run("Trace-Replay", func(b *testing.B) {
		var buf bytes.Buffer
		if err := workload.WriteNOC3(&buf, workload.Synth(workload.DataServing), 1, 4096, 1, 0); err != nil {
			b.Fatal(err)
		}
		tf, err := workload.ParseTraceBytes(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		st := tf.StreamFor(0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Next()
		}
	})
}

// BenchmarkTraceFormat measures the trace container on a 16-core
// Quick-length recording: decode cost (ns/op is ns per replayed
// instruction, steady-state block decode included, as replay decodes
// blocks when it reaches them) and on-disk compression ratio (in-memory
// stream bytes over file bytes, reported as compress-x).
func BenchmarkTraceFormat(b *testing.B) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	perCore := int(Quick.Warmup+Quick.Window) * 3
	src, err := ParseWorkload("MapReduce-C")
	if err != nil {
		b.Fatal(err)
	}
	noc3 := filepath.Join(b.TempDir(), "bench3.noctrace")
	if err := RecordTraceFile(noc3, src, cfg.Cores, perCore, cfg.Seed); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(noc3)
	if err != nil {
		b.Fatal(err)
	}
	rawBytes := float64(cfg.Cores) * float64(perCore) * 24 // in-memory cpu.Instr size

	b.Run("noc3-decode", func(b *testing.B) {
		total := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tf, err := workload.OpenTraceFile(noc3)
			if err != nil {
				b.Fatal(err)
			}
			st := tf.StreamFor(0, 1)
			for k := 0; k < perCore; k++ {
				st.Next()
			}
			total += int64(perCore)
			tf.Close()
		}
		b.StopTimer()
		b.ReportMetric(rawBytes/float64(st.Size()), "compress-x")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/instr")
	})
}

// BenchmarkWorkloadQuick compares a Quick-quality 16-core mesh
// measurement driven synthetically against the same measurement driven
// by a non-wrapping NOC3 recording (the ns/simcycle gap is the cost
// — or saving — of replay on the full simulation path).
func BenchmarkWorkloadQuick(b *testing.B) {
	cfg := DefaultConfig(Mesh)
	cfg.Cores = 16
	simCycles := int64(Quick.Warmup + Quick.Window)
	report := func(b *testing.B, res Result) {
		b.ReportMetric(res.AggIPC, "agg-ipc")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(simCycles*int64(b.N)), "ns/simcycle")
	}

	b.Run("synthetic", func(b *testing.B) {
		var res Result
		var err error
		for i := 0; i < b.N; i++ {
			res, err = Run(cfg, "MapReduce-C", Quick)
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, res)
	})
	b.Run("trace-replay", func(b *testing.B) {
		src, err := ParseWorkload("MapReduce-C")
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "mrc.noctrace")
		if err := RecordTraceFile(path, src, cfg.Cores, int(Quick.Warmup+Quick.Window)*3, cfg.Seed); err != nil {
			b.Fatal(err)
		}
		tf, err := LoadTrace(path)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var res Result
		for i := 0; i < b.N; i++ {
			res = RunWorkload(cfg, tf, Quick)
		}
		report(b, res)
	})
}
