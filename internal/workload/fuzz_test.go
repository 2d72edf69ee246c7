package workload

import (
	"bytes"
	"testing"
)

// The fuzz targets hold the trace decoders to the no-panic,
// no-unbounded-allocation contract on arbitrary bytes. `go test` runs
// the seed corpus on every CI pass; `go test -fuzz FuzzReadNOC3` (or
// FuzzReadCapture) explores further.

// FuzzReadNOC3 holds the sectioned-container reader to the same
// contract: arbitrary bytes either fail Parse/Verify cleanly or decode
// into a trace whose every stream replays valid instructions. Hostile
// indexes, corrupt CRCs, truncated blocks, and invalid predictor ids
// must never panic or allocate proportionally to claimed sizes.
func FuzzReadNOC3(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteNOC3(&buf, MapReducePhased(), 2, 300, 1, 32); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...)) // truncated mid-blocks
	f.Add(append([]byte(nil), valid[:6]...))            // magic + version only
	f.Add([]byte("NOC3"))
	f.Add([]byte("3CON"))
	tr := append([]byte(nil), valid...)
	tr[len(tr)-10] ^= 0xFF // index offset pointing into nowhere
	f.Add(tr)
	hostile := append([]byte(nil), valid...)
	hostile[len(hostile)-12] = 0x04 // index offset -> header section
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := ParseTraceBytes(data)
		if err != nil {
			return
		}
		if err := tf.Verify(); err != nil {
			return
		}
		// A verified trace must uphold the replay invariants end to end.
		for core := range tf.cores {
			st := tf.StreamFor(core, 1)
			n := tf.cores[core].meta.Total
			if n > 2000 {
				n = 2000
			}
			for i := 0; i < n; i++ {
				if in := st.Next(); in.Kind > 2 {
					t.Fatalf("core %d decoded invalid kind %d", core, in.Kind)
				}
			}
			if err := validCoreParams(core, tf.cores[core].meta.Params); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func FuzzReadCapture(f *testing.F) {
	data := readFixture(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:3])
	f.Add([]byte("NOC2"))
	f.Add([]byte{'N', 'O', 'C', '2', 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := readCapture(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that decodes must be safe to convert and hand to a
		// chip build: non-empty streams of the claimed length, buildable
		// core parameters.
		if len(c.cores) == 0 {
			t.Fatal("decoded capture has no cores")
		}
		for i := range c.cores {
			cc := &c.cores[i]
			if len(cc.instrs) == 0 || len(cc.instrs) != cc.meta.Total {
				t.Fatalf("core %d decoded %d records for a %d-record stream", i, len(cc.instrs), cc.meta.Total)
			}
			if err := validCoreParams(i, cc.meta.Params); err != nil {
				t.Fatal(err)
			}
		}
	})
}
