package workload

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// noc2Fixture is a legacy NOC2 capture written by the NOC2 recorder
// before it was deleted (see testdata/README): ConsolidatedMix, 3 cores ×
// 700 instructions, seed 9.
const noc2Fixture = "testdata/consolidated-3x700-seed9.noc2"

// The fixture's recording parameters.
const fixtureCores, fixturePerCore, fixtureSeed = 3, 700, 9

func readFixture(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(noc2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encodeCapture re-encodes a decoded capture with the canonical NOC2
// encoder, without any of the decoder's checks — the test-side writer
// for well-formed and hostile NOC2 inputs.
func encodeCapture(c *capture) []byte {
	var buf bytes.Buffer
	enc := &noc2Enc{w: &buf}
	enc.header(c.hdr, len(c.cores))
	for _, cc := range c.cores {
		enc.coreHeader(cc.meta)
		prev := int64(0)
		for _, in := range cc.instrs {
			enc.instr(in, &prev)
		}
	}
	return buf.Bytes()
}

func readFixtureCapture(t *testing.T) *capture {
	t.Helper()
	c, err := readCapture(bytes.NewReader(readFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCaptureRoundTrip: the committed NOC2 fixture decodes to exactly
// the streams, attribution, parameters and layout of its source, the
// canonical encoder reproduces its bytes, and its in-memory conversion
// is byte-identical to a direct NOC3 recording of the same source.
func TestCaptureRoundTrip(t *testing.T) {
	src := ConsolidatedMix()
	c := readFixtureCapture(t)
	if c.hdr.Source != "Consolidated" || c.hdr.Seed != fixtureSeed || c.hdr.ScaleLimit != fixtureCores || len(c.cores) != fixtureCores {
		t.Fatalf("capture header %+v, %d cores", c.hdr, len(c.cores))
	}
	lay := src.Layout()
	if c.hdr.Instr != lay.Instr || c.hdr.Hot != lay.Hot {
		t.Fatalf("shared regions: %+v/%+v != %+v/%+v", c.hdr.Instr, c.hdr.Hot, lay.Instr, lay.Hot)
	}
	for core, cc := range c.cores {
		want := src.CoreParams(core, fixtureSeed)
		want.Seed = 0
		if cc.meta.Member != src.MemberName(core) || cc.meta.Params != want || cc.meta.Local != lay.Local(core) || cc.meta.Total != fixturePerCore {
			t.Fatalf("core %d meta %+v", core, cc.meta)
		}
		ref := src.StreamFor(core, fixtureSeed)
		for i, in := range cc.instrs {
			if want := ref.Next(); in != want {
				t.Fatalf("core %d record %d: %+v != %+v", core, i, in, want)
			}
		}
	}
	if !bytes.Equal(encodeCapture(c), readFixture(t)) {
		t.Fatal("the canonical NOC2 encoder no longer reproduces the fixture")
	}
	for _, blockLen := range []int{0, 64} {
		var conv bytes.Buffer
		if err := convertNOC3(&conv, c, blockLen); err != nil {
			t.Fatal(err)
		}
		direct := writeNOC3Bytes(t, src, fixtureCores, fixturePerCore, fixtureSeed, blockLen)
		if !bytes.Equal(conv.Bytes(), direct) {
			t.Fatalf("block length %d: converted fixture and direct recording disagree byte for byte", blockLen)
		}
	}
}

func TestCaptureOfUnlimitedWorkloadRoundTrips(t *testing.T) {
	// An Unlimited-wrapped source reports MaxInt; the recording must
	// clamp the stored limit so the canonical NOC2 encoding — the
	// fingerprint's form — stays decodable.
	tf := parseNOC3(t, writeNOC3Bytes(t, Unlimited(Synth(WebSearch)), 4, 20, 1, 0))
	if tf.hdr.ScaleLimit != 4 || tf.MaxCores() != 4 {
		t.Fatalf("recorded scale limit = %d, MaxCores = %d, want the 4 recorded cores", tf.hdr.ScaleLimit, tf.MaxCores())
	}
}

func TestRecordValidation(t *testing.T) {
	if err := WriteNOC3(discardWriter{}, Synth(DataServing), 0, 10, 1, 0); err == nil {
		t.Fatal("zero cores must error")
	}
	if err := WriteNOC3(discardWriter{}, Synth(DataServing), 1, 0, 1, 0); err == nil {
		t.Fatal("zero instructions must error")
	}
	if err := WriteNOC3(discardWriter{}, Synth(DataServing), maxCaptureCores+1, 1, 1, 0); err == nil {
		t.Fatal("more cores than the capture cap must error")
	}
}

// TestReadCaptureRejectsCorruption drives the decoder through the main
// corruption classes — wrong magic, truncation at every byte boundary,
// implausible decoded pipeline parameters — and through every cap the
// recorder enforces, so anything that decodes also converts. None may
// panic.
func TestReadCaptureRejectsCorruption(t *testing.T) {
	valid := readFixture(t)
	if _, err := readCapture(bytes.NewReader([]byte("NOC1....."))); err == nil {
		t.Fatal("NOC1 magic must be rejected by the capture reader")
	}
	for cut := 0; cut < len(valid); cut += 17 {
		if _, err := readCapture(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d must error", cut)
		}
	}

	long := string(make([]byte, maxCaptureName+1))
	for _, tc := range []struct {
		name   string
		mutate func(c *capture)
	}{
		{"NaN base CPI", func(c *capture) { c.cores[0].meta.Params.BaseCPI = math.NaN() }},
		{"zero width", func(c *capture) { c.cores[1].meta.Params.Width = 0 }},
		{"no cores", func(c *capture) { c.cores = nil }},
		{"core count over cap", func(c *capture) {
			c.cores = append(c.cores, make([]coreCapture, maxCaptureCores)...)
		}},
		{"scale limit over cap", func(c *capture) { c.hdr.ScaleLimit = maxCaptureCores + 1 }},
		{"source name over cap", func(c *capture) { c.hdr.Source = long }},
		{"member name over cap", func(c *capture) { c.cores[2].meta.Member = long }},
		{"shared region over cap", func(c *capture) { c.hdr.Hot.Size = maxCaptureRegion + 1 }},
		{"local region over cap", func(c *capture) { c.cores[0].meta.Local.Size = maxCaptureRegion + 1 }},
		{"empty stream", func(c *capture) { c.cores[1].meta.Total, c.cores[1].instrs = 0, nil }},
		{"stream over cap", func(c *capture) { c.cores[0].meta.Total = maxTrace + 1 }},
	} {
		c := readFixtureCapture(t)
		tc.mutate(c)
		if _, err := readCapture(bytes.NewReader(encodeCapture(c))); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
