package cache

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"nocout/internal/ckpt"
)

func TestLineAddr(t *testing.T) {
	if LineAddr(0) != 0 || LineAddr(63) != 0 || LineAddr(64) != 1 || LineAddr(6400) != 100 {
		t.Fatal("LineAddr arithmetic wrong")
	}
}

func TestArrayShape(t *testing.T) {
	a := NewArray(32*1024, 2) // 32KB, 2-way: 512 lines, 256 sets
	if a.Lines() != 512 || a.Sets() != 256 || a.Ways() != 2 {
		t.Fatalf("shape: %d lines, %d sets, %d ways", a.Lines(), a.Sets(), a.Ways())
	}
}

func TestArrayHitMiss(t *testing.T) {
	a := NewArray(4096, 4) // 64 lines, 16 sets
	if _, hit := a.Lookup(5); hit {
		t.Fatal("empty array must miss")
	}
	a.Insert(5)
	if _, hit := a.Lookup(5); !hit {
		t.Fatal("inserted line must hit")
	}
	if !a.Contains(5) {
		t.Fatal("Contains must see the line")
	}
	if a.Contains(5 + 16) {
		t.Fatal("different tag in same set must miss")
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := NewArray(2*LineBytes*2, 2) // 4 lines, 2 sets, 2 ways
	// Lines 0, 2, 4 all map to set 0.
	a.Insert(0)
	a.Insert(2)
	a.Lookup(0) // touch 0 so 2 becomes LRU
	slot, victim, evicted := a.Insert(4)
	if !evicted || victim != 2 {
		t.Fatalf("evicted=%v victim=%d, want LRU line 2", evicted, victim)
	}
	if a.SlotLine(slot) != 4 {
		t.Fatal("slot should now hold line 4")
	}
	if a.Contains(2) || !a.Contains(0) || !a.Contains(4) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestArrayVictimOfMatchesInsert(t *testing.T) {
	a := NewArray(8*LineBytes, 2) // 8 lines, 4 sets
	for i := uint64(0); i < 8; i++ {
		a.Insert(i)
	}
	// Set 1 holds lines 1 and 5; line 1 is older.
	_, victim, had := a.VictimOf(9)
	if !had || victim != 1 {
		t.Fatalf("VictimOf = %d,%v want 1,true", victim, had)
	}
	_, gotVictim, _ := a.Insert(9)
	if gotVictim != victim {
		t.Fatal("VictimOf must predict Insert's choice")
	}
}

func TestArrayInvalidate(t *testing.T) {
	a := NewArray(4096, 4)
	a.Insert(7)
	if !a.Invalidate(7) {
		t.Fatal("Invalidate should report presence")
	}
	if a.Invalidate(7) {
		t.Fatal("double Invalidate should report absence")
	}
	// The freed way is reused without eviction.
	_, _, evicted := a.Insert(7)
	if evicted {
		t.Fatal("insert into invalidated way must not evict")
	}
}

func TestArrayDuplicateInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := NewArray(4096, 4)
	a.Insert(1)
	a.Insert(1)
}

func TestArrayPropertyNoFalseHits(t *testing.T) {
	a := NewArray(64*LineBytes, 4)
	inserted := map[uint64]bool{}
	evictedSet := map[uint64]bool{}
	err := quick.Check(func(raw uint16) bool {
		line := uint64(raw % 256)
		if a.Contains(line) != (inserted[line] && !evictedSet[line]) {
			return false
		}
		if !a.Contains(line) {
			_, victim, ev := a.Insert(line)
			inserted[line] = true
			delete(evictedSet, line)
			if ev {
				evictedSet[victim] = true
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestArrayWorkingSetFitsNoEvictions(t *testing.T) {
	// A working set equal to capacity with perfect distribution never
	// evicts after warm-up when re-touched in LRU-friendly order.
	a := NewArray(16*LineBytes, 2)
	for i := uint64(0); i < 16; i++ {
		if _, _, ev := a.Insert(i); ev {
			t.Fatal("cold fill of exact capacity must not evict")
		}
	}
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 16; i++ {
			if _, hit := a.Lookup(i); !hit {
				t.Fatal("resident working set must keep hitting")
			}
		}
	}
}

func TestMSHRFileBasics(t *testing.T) {
	f := NewMSHRFile(2)
	if f.Full() || f.Len() != 0 || f.Cap() != 2 {
		t.Fatal("fresh file state wrong")
	}
	m := f.Alloc(10, false, true)
	if m.Line != 10 || m.IsWrite || !m.Instr {
		t.Fatalf("MSHR contents: %+v", m)
	}
	if got, ok := f.Get(10); !ok || got != m {
		t.Fatal("Get must return the allocated MSHR")
	}
	f.Alloc(11, true, false)
	if !f.Full() {
		t.Fatal("file should be full at capacity")
	}
	f.Free(10)
	if f.Full() || f.Len() != 1 {
		t.Fatal("Free must release capacity")
	}
}

func TestMSHRDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewMSHRFile(4)
	f.Alloc(1, false, false)
	f.Alloc(1, false, false)
}

func TestMSHRFreeAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMSHRFile(4).Free(3)
}

func TestMSHROverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewMSHRFile(1)
	f.Alloc(1, false, false)
	f.Alloc(2, false, false)
}

// TestArrayPlaceMatchesProbeVictimInsert drives Place and the sequence it
// replaced (Contains, then VictimOf, then Insert into a free way) with the
// same random lines on twin arrays. Lines repeat and sets fill up; after
// every step the slot, the result and the SaveState bytes must agree.
func TestArrayPlaceMatchesProbeVictimInsert(t *testing.T) {
	for _, tc := range []struct {
		name        string
		bytes, ways int
		hashed      bool
		span        uint64
	}{
		{"l1-2way", 32 << 10, 2, false, 1024},
		{"llc-16way-hashed", 64 << 10, 16, true, 2048},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := NewArray(tc.bytes, tc.ways), NewArray(tc.bytes, tc.ways)
			ref.SetHash(tc.hashed)
			got.SetHash(tc.hashed)
			rng := rand.New(rand.NewPCG(1, 2))
			full := 0
			for step := 0; step < 4000; step++ {
				line := rng.Uint64N(tc.span)
				if step%7 == 0 {
					line += rng.Uint64N(1 << 40) // far tags share the sets
				}
				wantSlot, wantPresent := -1, ref.Contains(line)
				if wantPresent {
					wantSlot, _ = ref.Probe(line)
				} else if _, _, isFull := ref.VictimOf(line); !isFull {
					wantSlot, _, _ = ref.Insert(line)
				} else {
					full++
				}
				slot, present := got.Place(line)
				if slot != wantSlot || present != wantPresent {
					t.Fatalf("step %d line %#x: Place = %d,%v, sequence = %d,%v", step, line, slot, present, wantSlot, wantPresent)
				}
				var re, ge ckpt.Enc
				ref.SaveState(&re)
				got.SaveState(&ge)
				if !bytes.Equal(re.Bytes(), ge.Bytes()) {
					t.Fatalf("step %d line %#x: SaveState bytes differ", step, line)
				}
			}
			if full == 0 {
				t.Fatal("no step met a full set")
			}
		})
	}
}

// TestMSHRFileNoAllocs pins that a miss's MSHR lifetime allocates nothing.
func TestMSHRFileNoAllocs(t *testing.T) {
	f := NewMSHRFile(16)
	f.Alloc(1<<40, false, false) // a live entry the scans pass over
	line := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		line++
		f.Alloc(line, true, false)
		if m, ok := f.Get(line); ok {
			m.Waiters++
		}
		f.Free(line)
	})
	if allocs != 0 {
		t.Fatalf("Alloc/Get/Free allocates %.1f per cycle", allocs)
	}
}

// TestMSHRSaveStateOrderFree saves the same outstanding misses reached by
// different allocation and free orders: the bytes must not differ.
func TestMSHRSaveStateOrderFree(t *testing.T) {
	lines := []uint64{40, 7, 1 << 33, 12, 9, 300}
	var want []byte
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 20; trial++ {
		f := NewMSHRFile(8)
		for _, i := range rng.Perm(len(lines)) {
			m := f.Alloc(lines[i], lines[i]%2 == 0, lines[i] == 7)
			m.Waiters = int(lines[i] % 5)
		}
		// Two extra misses, freed in random order.
		f.Alloc(1000, false, false)
		f.Alloc(2, false, false)
		if rng.IntN(2) == 0 {
			f.Free(1000)
			f.Free(2)
		} else {
			f.Free(2)
			f.Free(1000)
		}
		var e ckpt.Enc
		f.SaveState(&e)
		if trial == 0 {
			want = e.Bytes()
			continue
		}
		if !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("trial %d: SaveState bytes depend on allocation order", trial)
		}
	}
	g := NewMSHRFile(8)
	d := ckpt.NewDec(want)
	g.LoadState(d)
	if d.Err() != nil || g.Len() != len(lines) {
		t.Fatalf("round trip: err %v, %d entries", d.Err(), g.Len())
	}
	if m, ok := g.Get(1 << 33); !ok || !m.IsWrite || m.Instr || m.Waiters != int((1<<33)%5) {
		t.Fatalf("restored MSHR %+v, %v", m, ok)
	}
}

func TestMSHRLoadStateRejects(t *testing.T) {
	entry := func(e *ckpt.Enc, line uint64) {
		e.U64(line)
		e.Bool(false)
		e.Bool(false)
		e.Bool(false)
		e.Bool(false)
		e.Int(0)
	}
	var dup, over ckpt.Enc
	dup.U64(2)
	entry(&dup, 5)
	entry(&dup, 5)
	over.U64(3)
	for line := uint64(0); line < 3; line++ {
		entry(&over, line)
	}
	for name, payload := range map[string][]byte{"duplicate": dup.Bytes(), "over capacity": over.Bytes()} {
		d := ckpt.NewDec(payload)
		NewMSHRFile(2).LoadState(d)
		if d.Err() == nil {
			t.Errorf("LoadState accepted a %s file", name)
		}
	}
}
