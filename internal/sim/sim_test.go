package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineTickOrderAndClock(t *testing.T) {
	e := NewEngine()
	var order []int
	var seen []Cycle
	e.Register(TickFunc(func(now Cycle) { order = append(order, 1); seen = append(seen, now) }))
	e.Register(TickFunc(func(now Cycle) { order = append(order, 2) }))
	e.Step(3)
	if e.Now() != 3 {
		t.Fatalf("Now() = %d, want 3", e.Now())
	}
	want := []int{1, 2, 1, 2, 1, 2}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("tick order %v, want %v", order, want)
		}
	}
	for i, c := range seen {
		if c != Cycle(i+1) {
			t.Fatalf("cycle sequence %v", seen)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Register(TickFunc(func(Cycle) { n++ }))
	if !e.RunUntil(func() bool { return n >= 5 }, 100) {
		t.Fatal("RunUntil should have satisfied the condition")
	}
	if n != 5 {
		t.Fatalf("ticked %d times, want 5", n)
	}
	if e.RunUntil(func() bool { return false }, 10) {
		t.Fatal("RunUntil should have timed out")
	}
}

func TestPipeDelay(t *testing.T) {
	p := NewPipe[int]("test", 3)
	p.Push(10, 42)
	for now := Cycle(10); now < 13; now++ {
		if _, ok := p.Pop(now); ok {
			t.Fatalf("value visible at cycle %d before delay elapsed", now)
		}
	}
	v, ok := p.Pop(13)
	if !ok || v != 42 {
		t.Fatalf("Pop(13) = %v,%v want 42,true", v, ok)
	}
	if _, ok := p.Pop(14); ok {
		t.Fatal("pipe should be empty")
	}
}

func TestPipePanicsOnZeroDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-delay pipe")
		}
	}()
	NewPipe[int]("bad", 0)
}

func TestPipePeekDoesNotConsume(t *testing.T) {
	p := NewPipe[string]("test", 1)
	p.Push(0, "a")
	if v, ok := p.Peek(1); !ok || v != "a" {
		t.Fatalf("Peek = %q,%v", v, ok)
	}
	if p.Len() != 1 {
		t.Fatal("Peek consumed the value")
	}
	if v, ok := p.Pop(1); !ok || v != "a" {
		t.Fatalf("Pop = %q,%v", v, ok)
	}
}

func TestQueueFIFO(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	if head, ok := q.Peek(); !ok || head != 0 {
		t.Fatalf("Peek = %d,%v", head, ok)
	}
	for i := 0; i < 10; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d,%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestRNGDeterminismAndForkIndependence(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	// Forks with different ids differ from each other and from the parent.
	p := NewRNG(7)
	f1, f2 := p.Fork(1), p.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams should differ")
	}
	// Fork is deterministic.
	p2 := NewRNG(7)
	g1 := p2.Fork(1)
	h1 := NewRNG(7).Fork(1)
	if g1.Uint64() != h1.Uint64() {
		t.Fatal("Fork must be deterministic")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must not produce the all-zero fixed point")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(42)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(1)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(3)
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(8)
	}
	mean := float64(sum) / n
	if mean < 7.0 || mean > 9.0 {
		t.Fatalf("geometric mean = %v, want ~8", mean)
	}
	if r.Geometric(0.5) != 1 {
		t.Fatal("Geometric(<1) must return 1")
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}
