package sim

import (
	"reflect"
	"testing"
)

// delivery records one observed pop: which value arrived at which cycle.
type delivery struct {
	V  int
	At Cycle
}

// pipeConsumer drains a pipe whenever it ticks and sleeps on the pipe's
// in-flight schedule — the canonical Sleeper over a single wake source.
type pipeConsumer struct {
	p   *Pipe[int]
	got []delivery
}

func (c *pipeConsumer) BindWaker(w Waker) { c.p.SetWaker(w) }
func (c *pipeConsumer) Tick(now Cycle) {
	for {
		v, ok := c.p.Pop(now)
		if !ok {
			return
		}
		c.got = append(c.got, delivery{V: v, At: now})
	}
}
func (c *pipeConsumer) NextWake(now Cycle) Cycle {
	if at, ok := c.p.NextAt(); ok {
		return at
	}
	return NeverWake
}

// queueConsumer is the mailbox-pattern equivalent over a Queue.
type queueConsumer struct {
	q   *Queue[int]
	got []delivery
}

func (c *queueConsumer) BindWaker(w Waker) { c.q.SetWaker(w) }
func (c *queueConsumer) Tick(now Cycle) {
	for {
		v, ok := c.q.Pop()
		if !ok {
			return
		}
		c.got = append(c.got, delivery{V: v, At: now})
	}
}
func (c *queueConsumer) NextWake(now Cycle) Cycle {
	if c.q.Len() > 0 {
		return now + 1
	}
	return NeverWake
}

// TestPipeFIFOAcrossSleepWake is the kernel-equivalence property test: for
// randomized push schedules (single pushes and bursts, a randomized pipe
// delay per seed, and long idle gaps that force the consumer through
// sleep/wake transitions), the scheduled kernel must deliver exactly the
// same values at exactly the same cycles as the naive kernel, in FIFO
// order.
func TestPipeFIFOAcrossSleepWake(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		run := func(scheduled bool) []delivery {
			e := NewEngine()
			e.SetScheduled(scheduled)
			rng := NewRNG(seed)
			p := NewPipe[int]("prop", 1+Cycle(rng.Intn(30)))
			next := 0
			// The producer is a plain ticker (always awake) so both kernels
			// draw the identical random push schedule.
			producer := TickFunc(func(now Cycle) {
				switch rng.Intn(10) {
				case 0:
					p.Push(now, next)
					next++
				case 1: // burst
					for k := 0; k < 3; k++ {
						p.Push(now, next)
						next++
					}
				}
			})
			cons := &pipeConsumer{p: p}
			e.Register(producer, cons)
			e.Step(500)
			return cons.got
		}
		naive, sched := run(false), run(true)
		if !reflect.DeepEqual(naive, sched) {
			t.Fatalf("seed %d: kernels disagree:\nnaive %v\nsched %v", seed, naive, sched)
		}
		for i := 1; i < len(sched); i++ {
			if sched[i].V != sched[i-1].V+1 {
				t.Fatalf("seed %d: FIFO order violated at %d: %v", seed, i, sched)
			}
			if sched[i].At < sched[i-1].At {
				t.Fatalf("seed %d: delivery cycles regressed: %v", seed, sched)
			}
		}
		if len(sched) == 0 {
			t.Fatalf("seed %d: no deliveries — property vacuous", seed)
		}
	}
}

// TestQueueWakeAcrossSleep pins the same-cycle visibility rule for queues:
// a push from a producer registered before the consumer is seen on the
// same cycle (also when the consumer was asleep), exactly as in the naive
// kernel.
func TestQueueWakeAcrossSleep(t *testing.T) {
	run := func(scheduled bool) []delivery {
		e := NewEngine()
		e.SetScheduled(scheduled)
		q := &Queue[int]{}
		next := 0
		producer := TickFunc(func(now Cycle) {
			if now%97 == 0 { // long idle gaps put the consumer to sleep
				q.Push(next)
				next++
			}
		})
		cons := &queueConsumer{q: q}
		e.Register(producer, cons)
		e.Step(1000)
		return cons.got
	}
	naive, sched := run(false), run(true)
	if !reflect.DeepEqual(naive, sched) {
		t.Fatalf("kernels disagree:\nnaive %v\nsched %v", naive, sched)
	}
	for _, d := range sched {
		if d.At%97 != 0 {
			t.Fatalf("same-cycle visibility broken: pushed at a %%97 boundary, got %v", d)
		}
	}
}

// TestScheduledSkipsIdleComponents verifies the quiescence accounting: a
// sleeping component is not ticked on idle cycles, while a plain ticker
// still runs every cycle, and results stay identical.
func TestScheduledSkipsIdleComponents(t *testing.T) {
	e := NewEngine()
	p := NewPipe[int]("idle", 5)
	cons := &pipeConsumer{p: p}
	ticks := 0
	counting := TickFunc(func(now Cycle) { ticks++ })
	idle := &countingSleeper{}
	e.Register(counting)
	e.Register(idle) // reactive sleeper with no wake sources
	e.Register(cons)
	p.Push(0, 42) // deliverable at cycle 5
	e.Step(100)
	if ticks != 100 {
		t.Fatalf("plain ticker ran %d times, want 100", ticks)
	}
	if idle.n != 1 {
		t.Fatalf("quiescent sleeper ticked %d times, want 1 (the registration probe)", idle.n)
	}
	if len(cons.got) != 1 || cons.got[0] != (delivery{V: 42, At: 5}) {
		t.Fatalf("consumer deliveries = %v", cons.got)
	}
	// 100 plain ticks, the idle probe, the consumer's probe and delivery.
	if e.Ticks() != 103 || e.WorkCycles() != 100 {
		t.Fatalf("work counters = %d ticks, %d cycles; want 103, 100", e.Ticks(), e.WorkCycles())
	}
}

type countingSleeper struct{ n int }

func (c *countingSleeper) Tick(now Cycle)           { c.n++ }
func (c *countingSleeper) NextWake(now Cycle) Cycle { return NeverWake }

// TestRunUntilEvaluatesCondOncePerState pins the check-then-step contract:
// cond sees the initial state once and each advanced state once — never
// the same state twice (the old kernel re-evaluated cond after the final
// cycle it had already checked).
func TestRunUntilEvaluatesCondOncePerState(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Register(TickFunc(func(Cycle) { n++ }))
	evals := 0
	ok := e.RunUntil(func() bool { evals++; return false }, 10)
	if ok {
		t.Fatal("cond is never true")
	}
	if n != 10 {
		t.Fatalf("stepped %d cycles, want 10", n)
	}
	if evals != 11 { // initial state + one per advanced cycle
		t.Fatalf("cond evaluated %d times for 10 cycles, want 11", evals)
	}
	// cond true on entry: no stepping at all.
	before := n
	if !e.RunUntil(func() bool { return true }, 10) {
		t.Fatal("cond true on entry must return true")
	}
	if n != before {
		t.Fatal("check-then-step: no cycle may run when cond holds on entry")
	}
}

// TestEngineModeSwitchRebuildsCalendar verifies naive -> scheduled
// mid-run: in-flight pipe work recorded while naive must still be
// delivered after the switch (NextWake accounts for in-flight input).
func TestEngineModeSwitchRebuildsCalendar(t *testing.T) {
	e := NewEngine()
	e.SetScheduled(false)
	p := NewPipe[int]("switch", 40)
	cons := &pipeConsumer{p: p}
	e.Register(cons)
	p.Push(0, 7) // deliverable at 40
	e.Step(10)   // naive prefix
	e.SetScheduled(true)
	e.Step(100)
	want := []delivery{{V: 7, At: 40}}
	if !reflect.DeepEqual(cons.got, want) {
		t.Fatalf("deliveries after mode switch = %v, want %v", cons.got, want)
	}
}

// TestPipeCompaction exercises the head-index reclamation paths.
func TestPipeCompaction(t *testing.T) {
	p := NewPipe[int]("compact", 1)
	const n = 10 * compactMin
	for i := 0; i < n; i++ {
		p.Push(Cycle(i), i)
	}
	for i := 0; i < n; i++ {
		v, ok := p.Pop(Cycle(n + 1))
		if !ok || v != i {
			t.Fatalf("pop %d = %d,%v", i, v, ok)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("leftover %d", p.Len())
	}
	// Interleaved push/pop must never lose order across compactions.
	var q Queue[int]
	in, out := 0, 0
	for round := 0; round < 200; round++ {
		for k := 0; k < 3; k++ {
			q.Push(in)
			in++
		}
		for k := 0; k < 2; k++ {
			v, ok := q.Pop()
			if !ok || v != out {
				t.Fatalf("queue pop = %d,%v want %d", v, ok, out)
			}
			out++
		}
	}
	for q.Len() > 0 {
		v, _ := q.Pop()
		if v != out {
			t.Fatalf("drain got %d want %d", v, out)
		}
		out++
	}
	if out != in {
		t.Fatalf("popped %d of %d", out, in)
	}
}

// BenchmarkPipePushPop measures the steady-state cost of the head-indexed
// pipe (the satellite micro-benchmark: no regression vs the old
// copy-shift; in fact O(1) pops regardless of depth).
func BenchmarkPipePushPop(b *testing.B) {
	for _, depth := range []int{4, 64} {
		b.Run(map[int]string{4: "depth4", 64: "depth64"}[depth], func(b *testing.B) {
			p := NewPipe[int]("bench", 1)
			now := Cycle(0)
			for i := 0; i < depth; i++ {
				p.Push(now, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				p.Push(now, i)
				p.Pop(now)
			}
		})
	}
}

// BenchmarkQueuePushPop is the Queue equivalent.
func BenchmarkQueuePushPop(b *testing.B) {
	for _, depth := range []int{4, 64} {
		b.Run(map[int]string{4: "depth4", 64: "depth64"}[depth], func(b *testing.B) {
			var q Queue[int]
			for i := 0; i < depth; i++ {
				q.Push(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Push(i)
				q.Pop()
			}
		})
	}
}
