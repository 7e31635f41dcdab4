// Package sim is the discrete-event simulation engine the PCN model runs
// on: a virtual clock, an event heap, periodic tasks (the τ-spaced price
// updates and epoch synchronizations of §III-B), and a metrics registry.
//
// The paper evaluates with a MATLAB simulation plus an instrumented LND
// testnet; this engine is the Go substitute — every evaluation quantity
// (TSR, normalized throughput, delay, queue occupancy) is an event-level
// measurement here.
//
// The event queue is a pooled, index-addressed 4-ary min-heap: events live
// in a slot arena reused through a free list, Schedule returns a value
// handle (no per-event allocation, no interface{} boxing through
// container/heap), and canceled events are compacted out of the heap when
// they outnumber the live ones, so long-horizon runs that cancel most of
// their deadline watchdogs do not carry the corpses to their fire times.
//
// Beside the heap, an engine holds lanes: FIFOs of events that fire a fixed
// delay after they are pushed, at one priority (the transaction-unit hop
// timer). A lane's fire times never decrease and its events draw their seq
// from the engine's one counter, so a lane is already sorted in the heap's
// (time, priority, seq) order. Run fires whichever of the heap top and the
// lane heads comes first in that order, which is exactly the order one heap
// holding every event would give.
package sim

import (
	"fmt"
	"math"
)

// Event is a cancelable value handle to a scheduled event. The zero value
// is inert: Cancel on it is a no-op. Handles stay safe after the event has
// fired or been canceled — the slot generation counter makes a stale
// Cancel a no-op instead of touching the slot's next occupant.
type Event struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel prevents a scheduled event from running. Safe to call multiple
// times, after the event fired, and on the zero Event.
func (ev Event) Cancel() {
	if ev.e != nil {
		ev.e.cancel(ev.idx, ev.gen)
	}
}

// Handler is an event's action as a method. An object that fires many
// events over its life (a transaction unit's per-hop timer) implements Fire
// once and schedules itself, instead of allocating a closure to capture its
// state.
type Handler interface{ Fire() }

// funcAction adapts Schedule's plain function to Handler. A func value is
// one pointer, so the conversion allocates nothing.
type funcAction func()

func (f funcAction) Fire() { f() }

// slot is one arena entry. A slot is live while its event is queued; on
// release its generation bumps (invalidating outstanding handles) and the
// index returns to the free list for reuse by a future Schedule. A queued
// event is canceled iff its action is nil (scheduling rejects a nil
// action). Keep it at 40 bytes: the heap's sifts walk slots by index, and a
// 48-byte slot measurably slowed the engine benchmarks.
type slot struct {
	time     float64
	seq      uint64
	action   Handler
	priority int32
	gen      uint32
}

// Engine is a single-threaded discrete-event simulator.
type Engine struct {
	now   float64
	slots []slot
	free  []int32 // released slot indices awaiting reuse
	heap  []int32 // 4-ary min-heap of slot indices, ordered by (time, priority, seq)
	// nCanceled counts canceled events still occupying the heap; when they
	// exceed the live events, compact() sweeps them out in one pass.
	nCanceled  int
	lanes      []*Lane
	laneEvents int    // events queued on all lanes
	seq        uint64 // shared by heap and lane events
}

// NewEngine returns an engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// less orders heap entries by (time, priority, seq) — identical to the
// pre-pool container/heap contract. seq is unique per event, so the order
// is total and neither the heap arity nor the split between heap and lanes
// can leak into execution order. nextLane compares lane heads by the same
// order.
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.time != sb.time {
		return sa.time < sb.time
	}
	if sa.priority != sb.priority {
		return sa.priority < sb.priority
	}
	return sa.seq < sb.seq
}

// siftUp restores the heap property from position i toward the root.
func (e *Engine) siftUp(i int) {
	h := e.heap
	moving := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(moving, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = moving
}

// siftDown restores the heap property from position i toward the leaves,
// hole-style: parents shift up into the hole and the moving entry drops in
// once no child precedes it.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	moving := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(h[c], h[best]) {
				best = c
			}
		}
		if !e.less(h[best], moving) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = moving
}

// popHead removes the heap minimum. The caller owns the returned slot index
// and must release it.
func (e *Engine) popHead() int32 {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return top
}

// release returns a slot to the free list. The generation bump invalidates
// every outstanding handle to the slot's previous occupant; dropping the
// action lets the closure (and whatever payment state it captures) be
// collected before the slot is reused.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.gen++
	s.action = nil
	e.free = append(e.free, idx)
}

// cancel marks a live event canceled. Stale handles (generation mismatch:
// the event already fired or the slot was reused) are ignored.
func (e *Engine) cancel(idx int32, gen uint32) {
	if int(idx) >= len(e.slots) {
		return
	}
	s := &e.slots[idx]
	if s.gen != gen || s.action == nil {
		return
	}
	s.action = nil // cancel, and release the action now; the corpse may linger awhile
	e.nCanceled++
	if e.nCanceled*2 > len(e.heap) {
		e.compact()
	}
}

// compact sweeps canceled events out of the heap in one pass and restores
// the heap property bottom-up. Without it, a long-horizon run that cancels
// most of its deadline watchdogs (churn workloads) would carry every corpse
// until its fire time — the pre-pool engine's leak.
func (e *Engine) compact() {
	keep := e.heap[:0]
	for _, idx := range e.heap {
		if e.slots[idx].action == nil {
			e.release(idx)
		} else {
			keep = append(keep, idx)
		}
	}
	e.heap = keep
	e.nCanceled = 0
	if n := len(e.heap); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

// Schedule queues action at absolute time t (>= Now). It returns the event
// handle for cancellation. The handle is a value: storing it does not pin
// the event's memory, and the zero Event is a valid "no event" sentinel.
func (e *Engine) Schedule(t float64, priority int, action func()) (Event, error) {
	var h Handler
	if action != nil {
		h = funcAction(action)
	}
	return e.ScheduleHandler(t, priority, h)
}

// ScheduleHandler is Schedule with the action given as a Handler.
func (e *Engine) ScheduleHandler(t float64, priority int, action Handler) (Event, error) {
	if t < e.now {
		return Event{}, fmt.Errorf("sim: schedule at %v before now %v", t, e.now)
	}
	if action == nil {
		return Event{}, fmt.Errorf("sim: nil action")
	}
	if priority < math.MinInt32 || priority > math.MaxInt32 {
		return Event{}, fmt.Errorf("sim: priority %d out of the int32 range", priority)
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.time = t
	s.priority = int32(priority)
	s.seq = e.seq
	s.action = action
	e.seq++
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap) - 1)
	return Event{e: e, idx: idx, gen: s.gen}, nil
}

// Every schedules action at now+interval, then every interval seconds until
// `until` (exclusive). Used for the τ-periodic probe/price updates.
//
// Tick i fires at exactly start + i·interval. Accumulating `next += interval`
// instead would drift by a rounding error per tick, which over the 10⁵+
// ticks of a long run desynchronizes the τ grid from consumers that compute
// epoch boundaries multiplicatively (A2L's ceil(t/τ)·τ alignment).
func (e *Engine) Every(interval, until float64, priority int, action func()) error {
	if interval <= 0 {
		return fmt.Errorf("sim: interval must be positive, got %v", interval)
	}
	tk := &ticker{e: e, start: e.now, interval: interval, until: until, priority: priority, i: 1, action: action}
	first := tk.start + interval
	if first >= until {
		return nil
	}
	_, err := e.ScheduleHandler(first, priority, tk)
	return err
}

// ticker is Every's event: it runs the action, then schedules itself for
// the next tick.
type ticker struct {
	e                      *Engine
	start, interval, until float64
	priority               int
	i                      int64 // index of the tick being fired
	action                 func()
}

func (tk *ticker) Fire() {
	tk.action()
	tk.i++
	// float64(i)*interval is nondecreasing in i, so next >= now always
	// holds inside the run loop.
	if next := tk.start + float64(tk.i)*tk.interval; next < tk.until {
		if _, err := tk.e.ScheduleHandler(next, tk.priority, tk); err != nil {
			panic(err)
		}
	}
}

// Lane is a FIFO of events that fire a fixed delay after they are pushed,
// all at one priority. Its fire times never decrease (now never does, and
// rounding now+delay is monotone in now) and its events take their seq from
// the engine's shared counter, so the FIFO is sorted in the engine's
// (time, priority, seq) order and a push is O(1) instead of a heap sift.
// Lane events cannot be canceled.
type Lane struct {
	e     *Engine
	delay float64
	prio  int32
	ring  []laneEntry // circular buffer, power-of-two length
	head  int         // ring index of the oldest event
	n     int         // queued events
}

// laneEntry is one queued lane event.
type laneEntry struct {
	time   float64
	seq    uint64
	action Handler
}

// NewLane adds a lane to the engine whose events fire delay seconds after
// they are pushed, at the given priority.
func (e *Engine) NewLane(delay float64, priority int) (*Lane, error) {
	if !(delay >= 0) || math.IsInf(delay, 1) {
		return nil, fmt.Errorf("sim: lane delay must be finite and non-negative, got %v", delay)
	}
	if priority < math.MinInt32 || priority > math.MaxInt32 {
		return nil, fmt.Errorf("sim: priority %d out of the int32 range", priority)
	}
	l := &Lane{e: e, delay: delay, prio: int32(priority)}
	e.lanes = append(e.lanes, l)
	return l, nil
}

// Push queues action to fire the lane's delay from now. A nil action panics.
func (l *Lane) Push(action Handler) {
	if action == nil {
		panic("sim: nil lane action")
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	e := l.e
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneEntry{time: e.now + l.delay, seq: e.seq, action: action}
	e.seq++
	l.n++
	e.laneEvents++
}

// grow doubles the ring, unwrapping the queued events to its front.
func (l *Lane) grow() {
	ring := make([]laneEntry, max(16, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// pop removes the head event and returns its action, clearing the entry so
// the ring does not pin the action's state.
func (l *Lane) pop() Handler {
	h := &l.ring[l.head]
	action := h.action
	h.action = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	l.e.laneEvents--
	return action
}

// nextLane returns the lane whose head event precedes the heap top and every
// other lane head, or nil when the heap top comes first or no lane holds an
// event.
func (e *Engine) nextLane() *Lane {
	var best *Lane
	var bt float64
	var bp int32
	var bseq uint64
	have := len(e.heap) > 0
	if have {
		s := &e.slots[e.heap[0]]
		bt, bp, bseq = s.time, s.priority, s.seq
	}
	for _, l := range e.lanes {
		if l.n == 0 {
			continue
		}
		h := &l.ring[l.head]
		if !have || h.time < bt || h.time == bt && (l.prio < bp || l.prio == bp && h.seq < bseq) {
			best, have = l, true
			bt, bp, bseq = h.time, l.prio, h.seq
		}
	}
	return best
}

// Run executes events in time order until the queues empty or the horizon is
// passed. It returns the final virtual time. Events beyond the horizon stay
// queued, so a later Run with a larger horizon resumes exactly where this
// one stopped and executes every scheduled event in order.
func (e *Engine) Run(horizon float64) float64 {
	for {
		// A lane head that precedes the heap top fires first: each queue is
		// sorted, so its first event is its minimum.
		if e.laneEvents > 0 {
			if lane := e.nextLane(); lane != nil {
				t := lane.ring[lane.head].time
				if t > horizon {
					return e.stopAt(horizon)
				}
				action := lane.pop()
				e.now = t
				action.Fire()
				continue
			}
		}
		if len(e.heap) == 0 {
			break
		}
		// Peek before popping: a past-horizon event must survive for the
		// next Run rather than being popped and dropped.
		top := e.heap[0]
		s := &e.slots[top]
		if s.action == nil { // canceled
			e.popHead()
			e.nCanceled--
			e.release(top)
			continue
		}
		if s.time > horizon {
			return e.stopAt(horizon)
		}
		t, action := s.time, s.action
		e.popHead()
		// Release before running: the action may schedule follow-ups that
		// reuse this slot; the generation bump keeps stale handles inert.
		e.release(top)
		e.now = t
		action.Fire()
	}
	if e.now < horizon && len(e.heap) == 0 && e.laneEvents == 0 {
		e.now = horizon
	}
	return e.now
}

// stopAt ends a Run whose next event lies beyond the horizon: time advances
// to the horizon but never rewinds, so a Run with a horizon earlier than the
// current time is a no-op.
func (e *Engine) stopAt(horizon float64) float64 {
	if horizon > e.now {
		e.now = horizon
	}
	return e.now
}
