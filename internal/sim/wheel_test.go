package sim

import (
	"reflect"
	"testing"
)

// These tests pin the wake wheel's edges: strides on either side of the
// wheel size, far arms that migrate onto the wheel after idle clock
// jumps, re-arms that undercut a pending far arm, and self-arms that the
// post-tick report supersedes.

// wheelEvent is one unit of observable work: component id did something
// with value v at cycle at.
type wheelEvent struct {
	at    Cycle
	id, v int
}

type wheelLog struct{ events []wheelEvent }

func (l *wheelLog) add(at Cycle, id, v int) {
	l.events = append(l.events, wheelEvent{at, id, v})
}

// nextMultiple returns the first multiple of stride after now.
func nextMultiple(now, stride Cycle) Cycle { return now - now%stride + stride }

// strideSleeper works on every multiple of stride and sleeps in between.
// ticks counts every tick it receives, due or not.
type strideSleeper struct {
	id     int
	stride Cycle
	log    *wheelLog
	ticks  []Cycle
}

func (s *strideSleeper) Tick(now Cycle) {
	s.ticks = append(s.ticks, now)
	if now%s.stride == 0 {
		s.log.add(now, s.id, 0)
	}
}
func (s *strideSleeper) NextWake(now Cycle) Cycle { return nextMultiple(now, s.stride) }

// scheduledProducer pushes onto a pipe and a queue at fixed cycles and
// sleeps between them, so the clock jumps idle gaps.
type scheduledProducer struct {
	at  []Cycle // ascending push cycles
	i   int
	p   *Pipe[int]
	q   *Queue[int]
	log *wheelLog
}

func (s *scheduledProducer) Tick(now Cycle) {
	for s.i < len(s.at) && s.at[s.i] == now {
		s.p.Push(now, s.i)
		s.q.Push(s.i)
		s.log.add(now, 0, s.i)
		s.i++
	}
}
func (s *scheduledProducer) NextWake(now Cycle) Cycle {
	if s.i < len(s.at) {
		return s.at[s.i]
	}
	return NeverWake
}

// farListener has far periodic work and a pipe input: every push re-arms
// it earlier than its pending far arm.
type farListener struct {
	strideSleeper
	p *Pipe[int]
}

func (f *farListener) BindWaker(w Waker) { f.p.SetWaker(w) }
func (f *farListener) Tick(now Cycle) {
	f.strideSleeper.Tick(now)
	for {
		v, ok := f.p.Pop(now)
		if !ok {
			break
		}
		f.log.add(now, f.id, v)
	}
}
func (f *farListener) NextWake(now Cycle) Cycle {
	next := f.strideSleeper.NextWake(now)
	if at, ok := f.p.NextAt(); ok && at < next {
		next = at
	}
	return next
}

// reactive drains a queue and otherwise never wakes on its own.
type reactive struct {
	id  int
	q   *Queue[int]
	log *wheelLog
}

func (r *reactive) BindWaker(w Waker) { r.q.SetWaker(w) }
func (r *reactive) Tick(now Cycle) {
	for {
		v, ok := r.q.Pop()
		if !ok {
			return
		}
		r.log.add(now, r.id, v)
	}
}
func (r *reactive) NextWake(Cycle) Cycle { return NeverWake }

// selfArmer wakes itself for the next cycle during every tick, but its
// report names its next multiple of stride; the report must win.
type selfArmer struct {
	strideSleeper
	w Waker
}

func (s *selfArmer) BindWaker(w Waker) { s.w = w }
func (s *selfArmer) Tick(now Cycle) {
	s.strideSleeper.Tick(now)
	s.w.Wake(now)
}

// wheelRig is one engine with every edge-case component registered.
type wheelRig struct {
	e       *Engine
	log     wheelLog
	strides []*strideSleeper
	far     *farListener
	self    *selfArmer
}

func newWheelRig(scheduled bool) *wheelRig {
	g := &wheelRig{e: NewEngine()}
	g.e.SetScheduled(scheduled)
	p := NewPipe[int]("far", 2)
	q := &Queue[int]{}
	// Bursts separated by gaps far longer than the wheel.
	at := []Cycle{3, 4, 700, 701, 1999, 2000, 2001, 5200, 5457, 9000, 9255, 9256}
	g.e.Register(&scheduledProducer{at: at, p: p, q: q, log: &g.log})
	for i, st := range []Cycle{1, 255, 256, 257, 1000} {
		s := &strideSleeper{id: 1 + i, stride: st, log: &g.log}
		g.strides = append(g.strides, s)
		g.e.Register(s)
	}
	g.far = &farListener{strideSleeper: strideSleeper{id: 6, stride: 1000, log: &g.log}, p: p}
	g.e.Register(g.far)
	g.e.Register(&reactive{id: 7, q: q, log: &g.log})
	g.self = &selfArmer{strideSleeper: strideSleeper{id: 8, stride: 300, log: &g.log}}
	g.e.Register(g.self)
	return g
}

// drive runs the same mix of Step and RunUntil calls on any rig; the
// targets land inside idle gaps, so far arms must migrate after jumps.
func (g *wheelRig) drive() {
	for _, n := range []Cycle{1, 7, 255, 256, 257, 300, 1000, 3, 2000, 511, 1, 4097} {
		g.e.Step(n)
	}
	g.e.RunUntil(func() bool { return false }, 1234)
	g.e.Step(700)
}

func TestWheelMatchesNaive(t *testing.T) {
	naive, sched := newWheelRig(false), newWheelRig(true)
	naive.drive()
	sched.drive()
	if naive.e.Now() != sched.e.Now() {
		t.Fatalf("clocks differ: naive %d, scheduled %d", naive.e.Now(), sched.e.Now())
	}
	if !reflect.DeepEqual(naive.log.events, sched.log.events) {
		t.Fatalf("work logs differ:\nnaive %v\nsched %v", naive.log.events, sched.log.events)
	}
	if len(sched.log.events) < 100 {
		t.Fatalf("only %d events: the rig is too quiet to test anything", len(sched.log.events))
	}
	// A pure stride sleeper ticks at the registration probe (cycle 1)
	// and then exactly on its due cycles: the wheel neither drops nor
	// duplicates an arm, near or far.
	end := sched.e.Now()
	for _, s := range append(sched.strides, &sched.self.strideSleeper) {
		want := []Cycle{1}
		for c := s.stride; c <= end; c += s.stride {
			if c != 1 {
				want = append(want, c)
			}
		}
		if !reflect.DeepEqual(s.ticks, want) {
			t.Errorf("stride %d sleeper ticked at %v, want %v", s.stride, s.ticks, want)
		}
	}
	// The stride-1 sleeper keeps every cycle busy; all others sleep.
	if sched.e.Ticks() >= naive.e.Ticks() || sched.e.WorkCycles() != naive.e.WorkCycles() {
		t.Errorf("scheduled kernel: %d ticks over %d cycles; naive %d over %d",
			sched.e.Ticks(), sched.e.WorkCycles(), naive.e.Ticks(), naive.e.WorkCycles())
	}
}

// TestWheelEarlierRearmBeatsFarArm pins the duplicate-entry case: a far
// arm is undercut by a pipe wake, and the post-tick report re-arms the
// same far cycle. The component must tick there exactly once, and no
// cycle may be processed without a tick.
func TestWheelEarlierRearmBeatsFarArm(t *testing.T) {
	e := NewEngine()
	var log wheelLog
	p := NewPipe[int]("undercut", 2)
	f := &farListener{strideSleeper: strideSleeper{id: 1, stride: 1000, log: &log}, p: p}
	e.Register(f)
	e.Step(10)
	p.Push(e.Now(), 42) // due at 12, far arm at 1000 still pending
	e.Step(2500)
	want := []Cycle{1, 12, 1000, 2000}
	if !reflect.DeepEqual(f.ticks, want) {
		t.Fatalf("ticks = %v, want %v", f.ticks, want)
	}
	if e.Ticks() != 4 || e.WorkCycles() != 4 {
		t.Fatalf("work counters = %d ticks, %d cycles; want 4, 4", e.Ticks(), e.WorkCycles())
	}
	if len(log.events) != 3 || log.events[0] != (wheelEvent{12, 1, 42}) {
		t.Fatalf("work = %v", log.events)
	}
}

// TestWheelFarArmSurvivesIdleJump ends Steps inside idle gaps, so far
// arms must migrate onto the wheel on a clock move that runs no cycle.
// A wake raised between Steps then puts another component on the wheel
// beyond the migrated arm, which must still fire first and on time.
func TestWheelFarArmSurvivesIdleJump(t *testing.T) {
	e := NewEngine()
	s := &strideSleeper{id: 1, stride: 1000, log: &wheelLog{}}
	p := NewPipe[int]("gap", 152)
	c := &pipeConsumer{p: p}
	e.Register(s, c)
	e.Step(900)        // the far arm at 1000 is now inside the window
	p.Push(e.Now(), 7) // due at 1052, after the migrated arm
	for e.Now() < 5000 {
		e.Step(333)
	}
	want := []Cycle{1, 1000, 2000, 3000, 4000, 5000}
	if !reflect.DeepEqual(s.ticks, want) {
		t.Fatalf("ticks = %v at now %d, want %v", s.ticks, e.Now(), want)
	}
	if got := []delivery{{V: 7, At: 1052}}; !reflect.DeepEqual(c.got, got) {
		t.Fatalf("deliveries = %v, want %v", c.got, got)
	}
}
