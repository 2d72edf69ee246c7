// Package sim provides the deterministic simulation substrate used by every
// timing model in this repository: a clocked engine with a quiescence-aware
// event-scheduled kernel, latched delay pipes for inter-component
// communication, and a seeded RNG.
//
// # Determinism rules
//
//   - A value one component hands to another becomes visible at a
//     strictly future cycle: through a Pipe, or by a write into the
//     receiver's buffer stamped with its arrival cycle, which the receiver
//     ignores until then (the router links in package noc). Message queues
//     drained at the start of the receiver's Tick are the one same-cycle
//     path. Components never call into each other mid-cycle.
//   - Within a cycle the Engine ticks components in registration order; a
//     correct component only consumes values that were handed over on an
//     earlier cycle, so registration order never changes results.
//
// # The scheduled kernel
//
// By default the Engine does not tick every component every cycle. Each
// registered component is armed in a wake calendar; Step advances the
// clock in jumps to the next armed cycle and, within a cycle, ticks only
// the armed components — still in registration order. Three contracts
// make the skipping invisible:
//
//   - A component implementing Sleeper reports, after each Tick, the next
//     cycle at which it can possibly do work. The report must account for
//     everything already in flight on its inputs (Pipe.NextAt, Queue.Len,
//     stamped buffer entries); NeverWake means "purely reactive: my wake
//     sources will re-arm me". Components that do not implement Sleeper
//     are ticked every cycle, which is always safe.
//   - Every input path is a wake source: Pipe.Push, Queue.Push and every
//     stamped buffer write re-arm the registered consumer (SetWaker / the
//     engine's WakeBinder hook), so a sleeping component can never miss
//     input. A stamped write queued behind an earlier pending entry may
//     skip the wake: the consumer is already armed for that entry.
//   - A wake for the current cycle honors registration order: it lands this
//     cycle if the consumer's turn has not passed yet, else next cycle —
//     exactly when the naive kernel would have let the consumer see the
//     input.
//
// Under these contracts the scheduled kernel is cycle-for-cycle identical
// to the naive tick-everything kernel (SetScheduled(false)); the
// conformance suite asserts state-hash equality between the two.
//
// # The wake wheel
//
// The calendar is a timing wheel (Varghese & Lauck, SOSP 1987) of 256
// slots, one per cycle of the window [now, now+255]. A slot is a bitset
// over registration indices, so walking its set bits upward is
// registration order, and a same-cycle wake for a component past the
// cursor sets a bit the walk still reaches. A 256-bit map of occupied
// slots finds the next armed cycle in a few word operations. Arms
// beyond the window wait in a min-heap and move onto the wheel whenever
// the clock moves. Each component holds at most one arm, its earliest;
// the report it gives after a tick replaces any arm it raised during that
// tick. A component that ticks every cycle is simply re-armed for the
// next one.
package sim

import (
	"math"
	"math/bits"
)

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

// wakeEntry is one far arm (at least wheelSize cycles ahead) in the
// overflow heap.
type wakeEntry struct {
	at  Cycle
	idx int
}

// The wake wheel has wheelSize slots, one per cycle of the window
// [now, now+wheelSize-1]; cycle c lives in slot c&wheelMask. Each slot is a
// bitset over registration indices.
const (
	wheelSize  = 256
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // words of the slot-occupancy bitmap
)

// Engine drives a set of Tickers with a shared clock.
type Engine struct {
	now     Cycle
	tickers []Ticker
	sleeper []Sleeper // parallel to tickers; nil for plain tickers

	naive  bool    // tick everything every cycle (conformance mode)
	wakeAt []Cycle // armed cycle per component (NeverWake = none)

	// The wheel: slot s is bits[s*words : (s+1)*words], one bit per
	// registration index, set exactly for the components armed at the
	// window cycle that maps to s. count[s] is its population and occ has
	// bit s set while count[s] > 0.
	bits  []uint64
	words int
	count [wheelSize]int32
	occ   [wheelWords]uint64

	// far holds arms beyond the window, lazily: an entry is live while
	// wakeAt[idx] still equals at. Every clock move migrates the entries
	// that entered the window onto the wheel, so all live far arms lie at
	// or beyond now+wheelSize.
	far MinHeap[wakeEntry]

	inCycle bool // a cycle is being processed
	cursor  int  // index currently being ticked within the cycle

	ticks      int64 // components ticked since the engine was built
	workCycles int64 // cycles on which at least one component ticked
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
	if w := (len(e.tickers) + 63) / 64; w > e.words {
		e.growWheel(w)
	}
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
		e.rearmAll()
	}
}

// Scheduled reports whether the event-scheduled kernel is active.
func (e *Engine) Scheduled() bool { return !e.naive }

// Ticks returns how many component ticks the engine has run since it was
// built: the kernel's unit of work. Restores do not reset it.
func (e *Engine) Ticks() int64 { return e.ticks }

// WorkCycles returns how many cycles the engine has processed on which at
// least one component ticked; the scheduled kernel skips the others.
func (e *Engine) WorkCycles() int64 { return e.workCycles }

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
			e.moveTo(target)
			return
		}
		e.moveTo(at)
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
				e.moveTo(target)
				return cond() // the clock moved; cond may read it
			}
			e.moveTo(at)
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
	if len(e.tickers) > 0 {
		e.ticks += int64(len(e.tickers))
		e.workCycles++
	}
}

// nextArmed returns the earliest armed cycle: the nearest occupied wheel
// slot after now, else the earliest live far arm. The slot of now itself
// is always empty between cycles.
func (e *Engine) nextArmed() (Cycle, bool) {
	from := int((e.now + 1) & wheelMask)
	w := from >> 6
	m := e.occ[w] &^ (1<<(from&63) - 1)
	for i := 0; i <= wheelWords; i++ {
		if m != 0 {
			s := w<<6 | bits.TrailingZeros64(m)
			return e.now + 1 + Cycle((s-from)&wheelMask), true
		}
		w = (w + 1) % wheelWords
		m = e.occ[w]
	}
	for e.far.Len() > 0 {
		top := e.far.Min()
		if e.wakeAt[top.idx] != top.at {
			e.far.Pop() // superseded by another arm
			continue
		}
		return top.at, true
	}
	return 0, false
}

// moveTo sets the clock and migrates the far arms that entered the
// window onto the wheel. Moves only go forward, and never past the
// earliest armed cycle, so no wheel arm falls behind the clock.
func (e *Engine) moveTo(now Cycle) {
	e.now = now
	limit := now + wheelSize - 1
	for e.far.Len() > 0 && e.far.Min().at <= limit {
		w := e.far.Pop()
		// A component re-armed to the same far cycle after an earlier
		// supersession leaves a duplicate entry; its bit is already set.
		if e.wakeAt[w.idx] == w.at && !e.onWheel(w.idx, w.at) {
			e.setBit(w.idx, w.at)
		}
	}
}

// runCycle ticks every component armed at e.now in registration order by
// walking the slot's set bits upward. A wake raised during the cycle for
// a component whose turn has not passed yet sets a bit above the cursor,
// which the walk still reaches; all others land on a later cycle.
func (e *Engine) runCycle() {
	e.inCycle = true
	e.workCycles++
	s := int(e.now & wheelMask)
	slot := e.bits[s*e.words : (s+1)*e.words]
	for wi := range slot {
		for slot[wi] != 0 {
			b := bits.TrailingZeros64(slot[wi])
			idx := wi<<6 | b
			e.clearBit(idx, s)
			e.wakeAt[idx] = NeverWake // arms during the tick register
			e.cursor = idx
			e.tickers[idx].Tick(e.now)
			e.ticks++
			rep := e.now + 1
			if sl := e.sleeper[idx]; sl != nil {
				rep = sl.NextWake(e.now)
			}
			// The report supersedes any arm the component raised during
			// its own tick: it already accounts for that input.
			e.disarm(idx)
			e.arm(idx, rep)
		}
	}
	e.inCycle = false
	e.cursor = -1
}

// arm schedules component idx to tick at cycle at, keeping only the
// earliest arm. Values not in the strict future are clamped to the
// earliest cycle consistent with the naive kernel's registration-order
// semantics (see Waker).
func (e *Engine) arm(idx int, at Cycle) {
	if e.naive || at == NeverWake {
		return
	}
	if at <= e.now {
		if e.inCycle && idx > e.cursor {
			at = e.now
		} else {
			at = e.now + 1
		}
	}
	if at >= e.wakeAt[idx] {
		return
	}
	e.disarm(idx)
	e.wakeAt[idx] = at
	if at-e.now < wheelSize {
		e.setBit(idx, at)
	} else {
		e.far.Push(wakeEntry{at: at, idx: idx})
	}
}

// disarm drops component idx's pending arm. A wheel bit is cleared
// eagerly; a far entry goes stale and is discarded when it surfaces.
func (e *Engine) disarm(idx int) {
	at := e.wakeAt[idx]
	if at == NeverWake {
		return
	}
	if at-e.now < wheelSize {
		e.clearBit(idx, int(at&wheelMask))
	}
	e.wakeAt[idx] = NeverWake
}

func (e *Engine) onWheel(idx int, at Cycle) bool {
	s := int(at & wheelMask)
	return e.bits[s*e.words+idx>>6]&(1<<(idx&63)) != 0
}

func (e *Engine) setBit(idx int, at Cycle) {
	s := int(at & wheelMask)
	e.bits[s*e.words+idx>>6] |= 1 << (idx & 63)
	if e.count[s]++; e.count[s] == 1 {
		e.occ[s>>6] |= 1 << (s & 63)
	}
}

func (e *Engine) clearBit(idx, s int) {
	e.bits[s*e.words+idx>>6] &^= 1 << (idx & 63)
	if e.count[s]--; e.count[s] == 0 {
		e.occ[s>>6] &^= 1 << (s & 63)
	}
}

// growWheel widens every slot to words words, keeping the armed bits.
func (e *Engine) growWheel(words int) {
	nb := make([]uint64, wheelSize*words)
	for s := 0; s < wheelSize; s++ {
		copy(nb[s*words:], e.bits[s*e.words:(s+1)*e.words])
	}
	e.bits, e.words = nb, words
}

// rearmAll clears the calendar and arms every component for the next
// cycle; each Sleeper's first report (which must cover all in-flight
// input) then rebuilds it.
func (e *Engine) rearmAll() {
	clear(e.bits)
	e.count = [wheelSize]int32{}
	e.occ = [wheelWords]uint64{}
	e.far.Clear()
	e.inCycle = false
	e.cursor = 0
	for i := range e.wakeAt {
		e.wakeAt[i] = NeverWake
	}
	for i := range e.tickers {
		e.arm(i, e.now+1)
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
