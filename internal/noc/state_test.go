package noc

import (
	"bytes"
	"reflect"
	"testing"

	"nocout/internal/ckpt"
	"nocout/internal/sim"
)

// creditEntry is one entry of a credit-pipe-shaped checkpoint section.
type creditEntry struct {
	at sim.Cycle
	vc uint64
}

// encodeCreditPipe writes entries the way a credit pipe serialized them:
// a count, then (delta-coded delivery cycle, VC) per credit.
func encodeCreditPipe(e *ckpt.Enc, entries []creditEntry) {
	e.U64(uint64(len(entries)))
	prev := sim.Cycle(0)
	for _, c := range entries {
		e.I64(int64(c.at - prev))
		prev = c.at
		e.U64(c.vc)
	}
}

// TestLoadCreditsPipeShaped decodes credit sections as the credit pipe
// wrote them — several delivery cycles per port — into the wire: all but
// the last cycle's credits were deliverable at the snapshot and fold into
// the counters; the last cycle's stay pending until due.
func TestLoadCreditsPipeShaped(t *testing.T) {
	base := [NumClasses]int{4, 4, 4}
	cases := []struct {
		name    string
		entries []creditEntry
		credits [NumClasses]int
		pend    [NumClasses]int
		pendAt  sim.Cycle
		corrupt bool
	}{
		{name: "empty", credits: base, pendAt: sim.NeverWake},
		{name: "one cycle",
			entries: []creditEntry{{5, 0}, {5, 2}},
			credits: base, pend: [NumClasses]int{1, 0, 1}, pendAt: 5},
		{name: "two cycles",
			entries: []creditEntry{{4, 0}, {4, 1}, {5, 0}},
			credits: [NumClasses]int{5, 5, 4}, pend: [NumClasses]int{1, 0, 0}, pendAt: 5},
		{name: "three cycles",
			entries: []creditEntry{{2, 2}, {3, 2}, {5, 0}, {5, 0}},
			credits: [NumClasses]int{4, 4, 6}, pend: [NumClasses]int{2, 0, 0}, pendAt: 5},
		{name: "VC out of range", entries: []creditEntry{{5, 0}, {5, NumClasses}}, corrupt: true},
		{name: "decreasing cycle", entries: []creditEntry{{5, 0}, {4, 1}}, corrupt: true},
		{name: "negative cycle", entries: []creditEntry{{-1, 0}}, corrupt: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e ckpt.Enc
			encodeCreditPipe(&e, tc.entries)
			d := ckpt.NewDec(e.Bytes())
			op := &OutPort{credits: base, pend: [NumClasses]int{9, 9, 9}, pendAt: 1}
			op.loadCredits(d)
			if tc.corrupt {
				if d.Err() == nil {
					t.Fatal("hostile credit section decoded without error")
				}
				return
			}
			if d.Err() != nil {
				t.Fatal(d.Err())
			}
			if op.credits != tc.credits || op.pend != tc.pend || op.pendAt != tc.pendAt {
				t.Fatalf("credits %v pend %v @%d; want %v %v @%d",
					op.credits, op.pend, op.pendAt, tc.credits, tc.pend, tc.pendAt)
			}
			// Round trip: the wire re-encodes as one pending batch.
			var e2 ckpt.Enc
			op.saveCredits(&e2)
			back := &OutPort{credits: op.credits}
			back.loadCredits(ckpt.NewDec(e2.Bytes()))
			if back.pend != op.pend || (op.pendAt != sim.NeverWake && back.pendAt != op.pendAt) {
				t.Fatalf("re-encoded wire: pend %v @%d, want %v @%d", back.pend, back.pendAt, op.pend, op.pendAt)
			}
		})
	}
}

// lineRun drives a saturated 3-flit stream through a 4-router line with
// 2-flit buffers, so credits gate every hop, and records deliveries.
type lineRun struct {
	rn  *RouterNetwork
	e   *sim.Engine
	got []delivery
}

type delivery struct {
	id uint64
	at sim.Cycle
}

func newLineRun(t *testing.T) *lineRun {
	l := &lineRun{rn: lineNet(t, 4, 1, 2), e: sim.NewEngine()}
	l.rn.SetDeliver(1, func(now sim.Cycle, p *Packet) { l.got = append(l.got, delivery{p.ID, now}) })
	inject := sim.TickFunc(func(now sim.Cycle) {
		if now%2 == 0 && now <= 400 {
			l.rn.Send(now, &Packet{ID: uint64(now), Class: Class(now / 2 % NumClasses), Src: 0, Dst: 1, Size: 3})
		}
	})
	l.e.Register(inject, l.rn)
	return l
}

func noPayload(*ckpt.Enc, any) {}
func nilPayload(*ckpt.Dec) any { return nil }

// TestCreditWireCheckpointRoundTrip snapshots a credit-gated line at
// several cycles, restores each snapshot into a fresh network, and checks
// that the restored run delivers exactly what the uninterrupted run does.
func TestCreditWireCheckpointRoundTrip(t *testing.T) {
	ref := newLineRun(t)
	ref.e.Step(700)
	if len(ref.got) < 50 {
		t.Fatalf("only %d deliveries: the line never saturated", len(ref.got))
	}
	for _, at := range []sim.Cycle{37, 120, 121, 399} {
		src := newLineRun(t)
		src.e.Step(at)
		var e ckpt.Enc
		src.rn.SaveState(&e, at, noPayload)
		dst := newLineRun(t)
		d := ckpt.NewDec(e.Bytes())
		dst.rn.LoadState(d, at, nilPayload)
		if d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("cycle %d: load: %v (%d bytes left)", at, d.Err(), d.Remaining())
		}
		dst.e.RestoreAt(at)
		dst.e.Step(700 - at)
		want := ref.got[len(src.got):]
		if !reflect.DeepEqual(dst.got, want) {
			t.Fatalf("cycle %d: restored run delivered\n%v\nwant\n%v", at, dst.got, want)
		}
	}
}

// TestLoadStateRejectsHostileCredits splices a hostile credit section
// into a real network snapshot: LoadState must report corruption, not
// panic or index out of range.
func TestLoadStateRejectsHostileCredits(t *testing.T) {
	rn := lineNet(t, 2, 1, 2)
	op := rn.Routers[0].outs[0]
	op.pend[ClassResp], op.pendAt = 1, 123456 // a pattern easy to find
	var e ckpt.Enc
	rn.SaveState(&e, 0, noPayload)
	var marker ckpt.Enc
	encodeCreditPipe(&marker, []creditEntry{{123456, uint64(ClassResp)}})
	for name, entries := range map[string][]creditEntry{
		"VC out of range":  {{123456, NumClasses + 7}},
		"decreasing cycle": {{123456, 0}, {123000, 1}},
	} {
		var bad ckpt.Enc
		encodeCreditPipe(&bad, entries)
		data := bytes.Replace(e.Bytes(), marker.Bytes(), bad.Bytes(), 1)
		if bytes.Equal(data, e.Bytes()) {
			t.Fatal("credit section not found in the snapshot")
		}
		d := ckpt.NewDec(data)
		lineNet(t, 2, 1, 2).LoadState(d, 0, nilPayload)
		if d.Err() == nil {
			t.Errorf("%s: LoadState accepted a hostile credit section", name)
		}
	}
}

// linkEntry is one flit of a flit-pipe-shaped link section: arrival
// cycle, packet-table index, and sequence number.
type linkEntry struct {
	at       sim.Cycle
	pkt, seq int
}

func encodeLink(e *ckpt.Enc, entries []linkEntry) {
	e.U64(uint64(len(entries)))
	prev := sim.Cycle(0)
	for _, l := range entries {
		e.I64(int64(l.at - prev))
		prev = l.at
		e.U64(uint64(l.pkt))
		e.Int(l.seq)
	}
}

// TestLoadStateRejectsHostileLinks splices hostile link sections into a
// real snapshot taken at cycle 1000. The second router's input holds a
// buffered request (packet 0) and one response flit on its link (packet
// 1, arriving at 1001). LoadState must report corruption when the link
// overflows a VC buffer or its arrival cycles are not strictly
// increasing and after the snapshot cycle.
func TestLoadStateRejectsHostileLinks(t *testing.T) {
	const now = 1000
	rn := lineNet(t, 2, 1, 2)
	ip := rn.Routers[1].ins[0]
	ip.vcs[ClassReq].push(Flit{Pkt: &Packet{Class: ClassReq, Size: 1}}, now-3)
	ip.vcs[ClassResp].push(Flit{Pkt: &Packet{Class: ClassResp, Size: 2}}, now+1)
	var e ckpt.Enc
	rn.SaveState(&e, now, noPayload)
	var marker ckpt.Enc
	encodeLink(&marker, []linkEntry{{now + 1, 1, 0}})
	if bytes.Count(e.Bytes(), marker.Bytes()) != 1 {
		t.Fatal("link section not found exactly once in the snapshot")
	}
	d := ckpt.NewDec(e.Bytes())
	lineNet(t, 2, 1, 2).LoadState(d, now, nilPayload)
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("untouched snapshot: %v (%d bytes left)", d.Err(), d.Remaining())
	}
	for name, entries := range map[string][]linkEntry{
		"VC overflow":        {{now + 1, 0, 0}, {now + 2, 0, 0}},
		"repeated arrival":   {{now + 2, 1, 0}, {now + 2, 1, 1}},
		"decreasing arrival": {{now + 3, 1, 0}, {now + 2, 1, 1}},
		"at snapshot cycle":  {{now, 1, 0}},
		"before snapshot":    {{now - 5, 1, 0}},
	} {
		var bad ckpt.Enc
		encodeLink(&bad, entries)
		d := ckpt.NewDec(bytes.Replace(e.Bytes(), marker.Bytes(), bad.Bytes(), 1))
		lineNet(t, 2, 1, 2).LoadState(d, now, nilPayload)
		if d.Err() == nil {
			t.Errorf("%s: LoadState accepted a hostile link section", name)
		}
	}
}
