package sim

import "testing"

// periodicSleeper wakes every stride cycles — the steady-state shape of
// a quiescent router or a memory channel between bursts. Its traffic
// through the wake calendar (one wheel slot visit and one re-arm per
// wake) must not allocate.
type periodicSleeper struct {
	stride Cycle
	ticks  int64
}

func (p *periodicSleeper) Tick(now Cycle)           { p.ticks++ }
func (p *periodicSleeper) NextWake(now Cycle) Cycle { return now + p.stride }

// calendarRig registers 64 sleepers at co-prime strides, so the wheel's
// slots fill and drain in a constantly shifting pattern, plus one
// stride-300 sleeper whose arms land beyond the wheel and travel through
// the far heap.
func calendarRig() *Engine {
	e := NewEngine()
	strides := []Cycle{3, 5, 7, 11}
	for i := 0; i < 64; i++ {
		e.Register(&periodicSleeper{stride: strides[i%len(strides)]})
	}
	e.Register(&periodicSleeper{stride: 300})
	e.Step(1024) // settle the far heap's capacity
	return e
}

// BenchmarkWakeCalendar measures the scheduled kernel's per-cycle cost
// on calendarRig. The headline number is allocs/op: steady state must
// be zero.
func BenchmarkWakeCalendar(b *testing.B) {
	e := calendarRig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(1)
	}
}

// TestWakeCalendarZeroAlloc enforces what the benchmark reports: arming,
// visiting and re-arming sleepers through the wheel and the far heap
// allocates nothing once capacities are warm.
func TestWakeCalendarZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	e := calendarRig()
	if avg := testing.AllocsPerRun(200, func() { e.Step(7) }); avg != 0 {
		t.Fatalf("wake calendar steady state allocates %.1f allocs per 7 cycles, want 0", avg)
	}
}
