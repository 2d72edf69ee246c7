// Package sim provides the deterministic simulation substrate used by every
// timing model in this repository: a clocked engine with a quiescence-aware
// event-scheduled kernel, latched delay pipes for inter-component
// communication, and a seeded RNG.
//
// # Determinism rules
//
//   - Components communicate only through Pipe values (or through message
//     queues drained at the start of the receiver's Tick), never by calling
//     into each other mid-cycle.
//   - Within a cycle the Engine ticks components in registration order; a
//     correct component only consumes values that were pushed on an earlier
//     cycle, so registration order never changes results.
//
// # The scheduled kernel
//
// By default the Engine does not tick every component every cycle. Each
// registered component is armed in a wake calendar (a min-heap keyed by
// cycle); Step advances the clock in jumps to the next armed cycle and,
// within a cycle, ticks only the armed components — still in registration
// order. Three contracts make the skipping invisible:
//
//   - A component implementing Sleeper reports, after each Tick, the next
//     cycle at which it can possibly do work. The report must account for
//     everything already in flight on its inputs (Pipe.NextAt, Queue.Len);
//     NeverWake means "purely reactive: my wake sources will re-arm me".
//     Components that do not implement Sleeper are ticked every cycle,
//     which is always safe.
//   - Every input path is a wake source: Pipe.Push, Pipe.PushAfter, and
//     Queue.Push re-arm the registered consumer (SetWaker / the engine's
//     WakeBinder hook), so a sleeping component can never miss input.
//   - A wake for the current cycle honors registration order: it lands this
//     cycle if the consumer's turn has not passed yet, else next cycle —
//     exactly when the naive kernel would have let the consumer see the
//     input.
//
// Under these contracts the scheduled kernel is cycle-for-cycle identical
// to the naive tick-everything kernel (SetScheduled(false)); the
// conformance suite asserts state-hash equality between the two.
package sim

import "math"

// Cycle is a simulation timestamp in clock cycles.
type Cycle int64

// NeverWake is the Sleeper report for "purely reactive": the component has
// no self-scheduled work and relies on its wake sources to re-arm it.
const NeverWake Cycle = math.MaxInt64

// Ticker is implemented by every simulated component.
type Ticker interface {
	// Tick advances the component by one cycle. now is the current cycle.
	Tick(now Cycle)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now Cycle)

// Tick calls f(now).
func (f TickFunc) Tick(now Cycle) { f(now) }

// Sleeper is the quiescence contract. After each Tick the engine asks the
// component for the next cycle at which it can possibly do work:
//
//   - a value <= now means "unknown / always": tick me next cycle (the safe
//     default, equivalent to not implementing Sleeper);
//   - a future cycle sleeps the component until then (or until a wake
//     source re-arms it earlier);
//   - NeverWake sleeps it until a wake source fires.
//
// The report must cover everything already in flight toward the component
// (buffered work, pipe deliveries); wake sources only cover pushes that
// happen after the report.
type Sleeper interface {
	Ticker
	NextWake(now Cycle) Cycle
}

// Waker re-arms one registered component in its engine's wake calendar.
// Wake sources hold the Waker of their consumer; sim.Pipe and sim.Queue
// call it on every push.
type Waker interface {
	// Wake arms the component to tick at cycle at. A value of at that is
	// not in the strict future means "as soon as consistent with the naive
	// kernel": the current cycle if the component's turn in registration
	// order has not passed yet, else the next cycle.
	Wake(at Cycle)
}

// WakeBinder is implemented by components that own wake sources (inbox
// queues, input pipes). The engine calls BindWaker once at registration so
// the component can attach its Waker to them; wiring must therefore be
// complete before the component is registered.
type WakeBinder interface {
	BindWaker(w Waker)
}

// Registrar is implemented by composite components (a router network) that
// prefer to register their internals individually so each can sleep on its
// own. Engine.Register delegates to RegisterInto instead of registering the
// composite as a single ticker.
type Registrar interface {
	RegisterInto(e *Engine)
}

// Flusher is implemented by components that defer per-cycle accounting
// (statistics sampling, stall attribution) while asleep. Flush brings the
// counters up to date at cycle now; Engine.Flush calls it on every
// registered component at measurement boundaries.
type Flusher interface {
	Flush(now Cycle)
}

// wakeEntry is one armed (cycle, component) pair in the calendar.
type wakeEntry struct {
	at  Cycle
	idx int
}

// activeMark is the wakeAt sentinel for components in the active set: they
// tick every cycle without touching the calendar heap, so the heap only
// pays for genuine sleep/wake transitions. Real arms are always >= 1, so
// the sentinel also invalidates any stale heap entries left from before
// the component went active.
const activeMark Cycle = 0

// Engine drives a set of Tickers with a shared clock.
type Engine struct {
	now     Cycle
	tickers []Ticker
	sleeper []Sleeper // parallel to tickers; nil for plain tickers

	naive  bool               // tick everything every cycle (conformance mode)
	wakeAt []Cycle            // earliest armed cycle per component (NeverWake = none)
	heap   MinHeap[wakeEntry] // calendar on (at, idx); may hold stale entries

	// The active set: components currently ticking every cycle, sorted by
	// registration index. Membership is wakeAt[idx] == activeMark (which
	// also serves as the live filter for lazy removal); nActive counts
	// live members.
	active  []int
	joins   []int // components that went active this cycle (ascending)
	scratch []int // double buffer for compacting active
	nActive int

	inCycle bool // a cycle is being processed
	cursor  int  // index currently being ticked within the cycle
}

// NewEngine returns an engine with the clock at cycle 0, running the
// scheduled kernel. SetScheduled(false) selects the naive kernel.
func NewEngine() *Engine { return &Engine{} }

// Register appends components to the tick order. A Registrar is expanded
// via RegisterInto; a WakeBinder receives its Waker here, so components
// must be fully wired before registration.
func (e *Engine) Register(ts ...Ticker) {
	for _, t := range ts {
		if r, ok := t.(Registrar); ok {
			r.RegisterInto(e)
			continue
		}
		e.add(t)
	}
}

func (e *Engine) add(t Ticker) {
	idx := len(e.tickers)
	e.tickers = append(e.tickers, t)
	s, _ := t.(Sleeper)
	e.sleeper = append(e.sleeper, s)
	e.wakeAt = append(e.wakeAt, NeverWake)
	if b, ok := t.(WakeBinder); ok {
		b.BindWaker(&engineWaker{e: e, idx: idx})
	}
	e.arm(idx, e.now+1)
}

// SetScheduled selects between the scheduled kernel (the default) and the
// naive tick-everything kernel. Switching back to scheduled re-arms every
// component for the next cycle, from which each Sleeper's report (which
// must cover all in-flight input) rebuilds the calendar.
func (e *Engine) SetScheduled(on bool) {
	if e.naive != on {
		return // already in the requested mode
	}
	e.naive = !on
	if on {
		e.heap.Clear()
		e.active = e.active[:0]
		e.joins = e.joins[:0]
		e.nActive = 0
		for i := range e.wakeAt {
			e.wakeAt[i] = NeverWake
		}
		for i := range e.tickers {
			e.arm(i, e.now+1)
		}
	}
}

// Scheduled reports whether the event-scheduled kernel is active.
func (e *Engine) Scheduled() bool { return !e.naive }

// Now returns the current cycle (the last cycle that was ticked).
func (e *Engine) Now() Cycle { return e.now }

// Flush brings every lazily-accounted component (sim.Flusher) up to date at
// the current cycle. Call it before reading statistics that are sampled per
// cycle (measurement boundaries, state hashes).
func (e *Engine) Flush() {
	for _, t := range e.tickers {
		if f, ok := t.(Flusher); ok {
			f.Flush(e.now)
		}
	}
}

// Step advances the simulation by n cycles. The scheduled kernel jumps the
// clock between armed cycles; cycles on which every component sleeps are
// skipped entirely (they are provably side-effect free).
func (e *Engine) Step(n Cycle) {
	target := e.now + n
	if e.naive {
		for e.now < target {
			e.now++
			e.tickAll()
		}
		return
	}
	for {
		at, ok := e.nextArmed()
		if !ok || at > target {
			e.now = target
			return
		}
		e.now = at
		e.runCycle()
	}
}

// RunUntil advances the simulation until cond returns true or limit cycles
// have elapsed, and reports whether cond was satisfied.
//
// Semantics are check-then-step: cond is evaluated once against the current
// state before any stepping, then exactly once after each subsequent cycle
// in which work ran — never twice against the same state. Under the
// scheduled kernel, cycles on which every component sleeps are skipped
// (component state cannot change on them) and cond is evaluated once more
// after any final idle jump to the limit; cond should therefore depend on
// simulation state, not on intermediate values of Now(), to behave
// identically on both kernels.
func (e *Engine) RunUntil(cond func() bool, limit Cycle) bool {
	if cond() {
		return true
	}
	target := e.now + limit
	for e.now < target {
		if e.naive {
			e.now++
			e.tickAll()
		} else {
			at, ok := e.nextArmed()
			if !ok || at > target {
				e.now = target
				return cond() // the clock moved; cond may read it
			}
			e.now = at
			e.runCycle()
		}
		if cond() {
			return true
		}
	}
	return false
}

// tickAll runs one naive cycle.
func (e *Engine) tickAll() {
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
}

// nextArmed returns the earliest armed cycle, discarding stale heap
// entries. A non-empty active set always means work next cycle.
func (e *Engine) nextArmed() (Cycle, bool) {
	if e.nActive > 0 {
		return e.now + 1, true
	}
	for e.heap.Len() > 0 {
		top := e.heap.Min()
		if e.wakeAt[top.idx] != top.at {
			e.heap.Pop() // superseded by an earlier arm or already ticked
			continue
		}
		return top.at, true
	}
	return 0, false
}

// runCycle ticks every component due at e.now in registration order,
// merging the sorted active set with the calendar's due entries. Wakes
// raised during the cycle for components whose turn has not passed yet
// join the same cycle; all others land on a later cycle.
func (e *Engine) runCycle() {
	e.inCycle = true
	ai := 0
	for {
		// Next live heap candidate due this cycle.
		hIdx := -1
		for e.heap.Len() > 0 && e.heap.Min().at == e.now {
			if e.wakeAt[e.heap.Min().idx] != e.now {
				e.heap.Pop()
				continue
			}
			hIdx = e.heap.Min().idx
			break
		}
		// Next live active candidate.
		aIdx := -1
		for ai < len(e.active) {
			if e.wakeAt[e.active[ai]] != activeMark {
				ai++ // deactivated on an earlier cycle; lazily dropped
				continue
			}
			aIdx = e.active[ai]
			break
		}
		var idx int
		switch {
		case aIdx < 0 && hIdx < 0:
			e.compactActive()
			e.inCycle = false
			e.cursor = -1
			return
		case aIdx >= 0 && (hIdx < 0 || aIdx < hIdx):
			idx = aIdx
			ai++
		default:
			idx = hIdx
			e.heap.Pop()
			e.wakeAt[idx] = NeverWake // arms during the tick register
		}
		e.cursor = idx
		e.tickers[idx].Tick(e.now)
		rep := e.now + 1
		if s := e.sleeper[idx]; s != nil {
			rep = s.NextWake(e.now)
		}
		if rep <= e.now+1 {
			// Ticking every cycle: keep (or put) it in the active set.
			if e.wakeAt[idx] != activeMark {
				e.wakeAt[idx] = activeMark
				e.nActive++
				e.joins = append(e.joins, idx)
			}
		} else {
			if e.wakeAt[idx] == activeMark {
				e.nActive--
			}
			e.wakeAt[idx] = NeverWake
			e.arm(idx, rep)
		}
	}
}

// compactActive folds this cycle's joins into the active list and drops
// deactivated members, keeping it sorted by registration index. joins is
// already ascending because ticks run in index order.
func (e *Engine) compactActive() {
	if len(e.joins) == 0 {
		// Cheap path: drop stale members in place only if any exist.
		if e.nActive == len(e.active) {
			return
		}
		live := e.active[:0]
		for _, idx := range e.active {
			if e.wakeAt[idx] == activeMark {
				live = append(live, idx)
			}
		}
		e.active = live
		return
	}
	out := e.scratch[:0]
	ji := 0
	for _, idx := range e.active {
		if e.wakeAt[idx] != activeMark {
			continue
		}
		for ji < len(e.joins) && e.joins[ji] < idx {
			out = append(out, e.joins[ji])
			ji++
		}
		out = append(out, idx)
	}
	out = append(out, e.joins[ji:]...)
	e.scratch = e.active[:0]
	e.active = out
	e.joins = e.joins[:0]
}

// arm schedules component idx to tick at cycle at. Values not in the strict
// future are clamped to the earliest cycle consistent with the naive
// kernel's registration-order semantics (see Waker). Arms for active-set
// members are redundant (they tick every cycle) and ignored.
func (e *Engine) arm(idx int, at Cycle) {
	if e.naive || at == NeverWake || e.wakeAt[idx] == activeMark {
		return
	}
	if at <= e.now {
		if e.inCycle && idx > e.cursor {
			at = e.now
		} else {
			at = e.now + 1
		}
	}
	if at < e.wakeAt[idx] {
		e.wakeAt[idx] = at
		e.heap.Push(wakeEntry{at: at, idx: idx})
	}
}

// engineWaker is the Waker handed to a component's wake sources.
type engineWaker struct {
	e   *Engine
	idx int
}

// Wake implements Waker.
func (w *engineWaker) Wake(at Cycle) { w.e.arm(w.idx, at) }

// Less orders entries by (cycle, registration index) so same-cycle pops
// come out in deterministic registration order.
func (a wakeEntry) Less(b wakeEntry) bool {
	return a.at < b.at || (a.at == b.at && a.idx < b.idx)
}
