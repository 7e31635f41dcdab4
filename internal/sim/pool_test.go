package sim

// Tests for the pooled event arena: slot reuse must never resurrect or
// miscancel events (the generation counter is the guard), canceled events
// must not occupy the heap until their fire time (the compaction
// satellite), and the pooled 4-ary heap together with the engine's lanes
// must execute in exactly the (time, priority, seq) order of the
// container/heap implementation they replaced — pinned here against a
// reference reimplementation.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// TestCancelAfterFireIsNoop: a handle to an event that already fired must
// not cancel the slot's next occupant.
func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	fired := 0
	ev1, err := e.Schedule(1, 0, func() { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// The slot is now free; the next Schedule reuses it.
	if _, err := e.Schedule(3, 0, func() { fired += 10 }); err != nil {
		t.Fatal(err)
	}
	ev1.Cancel() // stale handle: generation mismatch, must be inert
	e.Run(4)
	if fired != 11 {
		t.Fatalf("fired = %d, want 11 (stale Cancel killed the reused slot)", fired)
	}
}

// TestCancelAfterCancelAndReuse: canceling twice across a slot reuse must
// not touch the new occupant either.
func TestCancelAfterCancelAndReuse(t *testing.T) {
	e := NewEngine()
	ran := 0
	ev, err := e.Schedule(1, 0, func() { t.Fatal("canceled event ran") })
	if err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	e.Run(2) // sweeps the canceled corpse, frees the slot
	if _, err := e.Schedule(3, 0, func() { ran++ }); err != nil {
		t.Fatal(err)
	}
	ev.Cancel() // stale: must not cancel the reused slot
	e.Run(4)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
}

// TestZeroEventCancel: the zero Event is a valid no-op handle.
func TestZeroEventCancel(t *testing.T) {
	var ev Event
	ev.Cancel() // must not panic
}

// TestCanceledEventsCompacted is the heap-occupancy regression test: a
// long-horizon run canceling most of its deadline events must not carry
// the corpses in the heap until their fire times.
func TestCanceledEventsCompacted(t *testing.T) {
	e := NewEngine()
	const n = 10000
	ran := 0
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		ev, err := e.Schedule(1e6+float64(i), 0, func() { ran++ })
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	for _, ev := range events[:n-10] {
		ev.Cancel()
	}
	if live := pending(e); live != 10 {
		t.Fatalf("%d events pending, want 10", live)
	}
	// Compaction triggers when corpses outnumber live events, so occupancy
	// must be bounded by ~2x the live count, not by the cancel count.
	if occ := len(e.heap); occ > 2*10+1 {
		t.Fatalf("heap occupancy = %d after canceling %d events, want <= %d", occ, n-10, 2*10+1)
	}
	// The survivors still run.
	for i := 0; i < 10; i++ {
		if _, err := e.Schedule(float64(i), 0, func() { ran++ }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(2e6)
	if ran != 20 {
		t.Fatalf("ran %d events, want 20", ran)
	}
}

// TestSlotReuseAfterPop: pool churn (schedule, run, repeat) must keep the
// arena small — slots freed by fired events are reused, not appended.
func TestSlotReuseAfterPop(t *testing.T) {
	e := NewEngine()
	for round := 0; round < 100; round++ {
		for i := 0; i < 10; i++ {
			if _, err := e.Schedule(e.Now()+float64(i+1), 0, func() {}); err != nil {
				t.Fatal(err)
			}
		}
		e.Run(e.Now() + 100)
	}
	if len(e.slots) > 32 {
		t.Fatalf("arena grew to %d slots for a working set of 10", len(e.slots))
	}
}

// --- reference engine: the pre-pool container/heap implementation ---

type refEvent struct {
	time     float64
	priority int
	seq      uint64
	action   func()
	canceled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// testLanes are the two lanes of the randomized order pin: different delays
// and priorities, the first at the priority heap follow-ups also use.
var testLanes = []struct {
	delay float64
	prio  int
}{{0.5, 3}, {1, 1}}

// followUps draws the events a fired event queues: up to two per firing,
// until maxSpawned. Each engine draws from its own rng in execution order, so
// the pooled engine and the reference draw the same follow-ups exactly as
// long as they execute in the same order.
type followUps struct {
	rng     *rand.Rand
	spawned int
}

const maxSpawned = 6000

// draw calls queue once per follow-up: lane >= 0 pushes onto that lane,
// lane < 0 schedules a heap event delay from now at priority prio.
func (f *followUps) draw(queue func(lane int, delay float64, prio int)) {
	for k := f.rng.Intn(3); k > 0 && f.spawned < maxSpawned; k-- {
		f.spawned++
		switch f.rng.Intn(4) {
		case 0, 1:
			queue(f.rng.Intn(len(testLanes)), 0, 0)
		case 2:
			// Same fire time and priority as a lane-0 push now: only seq
			// separates them.
			queue(-1, testLanes[0].delay, testLanes[0].prio)
		default:
			queue(-1, float64(f.rng.Intn(8))/4, f.rng.Intn(5)-1)
		}
	}
}

// pooledRun is the pooled engine's side of the order pin.
type pooledRun struct {
	e      *Engine
	lanes  []*Lane
	f      followUps
	order  []int
	nextID int
}

type pooledEvent struct {
	r  *pooledRun
	id int
}

func (ev *pooledEvent) Fire() { ev.r.fire(ev.id) }

func (r *pooledRun) fire(id int) {
	r.order = append(r.order, id)
	r.f.draw(func(lane int, delay float64, prio int) {
		ev := &pooledEvent{r, r.nextID}
		r.nextID++
		if lane >= 0 {
			r.lanes[lane].Push(ev)
		} else if _, err := r.e.ScheduleHandler(r.e.Now()+delay, prio, ev); err != nil {
			panic(err)
		}
	})
}

// refRun is the reference's side: one container/heap holds every event, a
// lane push included.
type refRun struct {
	heap   refHeap
	seq    uint64
	now    float64
	f      followUps
	order  []int
	nextID int
}

func (r *refRun) push(at float64, prio int) *refEvent {
	id := r.nextID
	r.nextID++
	re := &refEvent{time: at, priority: prio, seq: r.seq}
	re.action = func() { r.fire(id) }
	r.seq++
	heap.Push(&r.heap, re)
	return re
}

func (r *refRun) fire(id int) {
	r.order = append(r.order, id)
	r.f.draw(func(lane int, delay float64, prio int) {
		if lane >= 0 {
			delay, prio = testLanes[lane].delay, testLanes[lane].prio
		}
		r.push(r.now+delay, prio)
	})
}

func (r *refRun) run() {
	for r.heap.Len() > 0 {
		re := heap.Pop(&r.heap).(*refEvent)
		if !re.canceled {
			r.now = re.time
			re.action()
		}
	}
}

// TestPooledHeapMatchesContainerHeap drives the pooled engine and the
// reference container/heap side by side through a randomized
// schedule/cancel workload and requires the exact same execution order.
// Fired events queue follow-ups: pushes onto two lanes of different delays
// and priorities, heap events at a lane's priority and fire time, and
// others; fire times lie on a quarter grid, so ties are common. The
// (time, priority, seq) contract is total, so neither the 4-ary pooled heap
// nor the lanes may be distinguishable from one container/heap.
func TestPooledHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := &pooledRun{e: NewEngine(), f: followUps{rng: rand.New(rand.NewSource(seed + 100))}}
		for _, l := range testLanes {
			lane, err := got.e.NewLane(l.delay, l.prio)
			if err != nil {
				t.Fatal(err)
			}
			got.lanes = append(got.lanes, lane)
		}
		want := &refRun{f: followUps{rng: rand.New(rand.NewSource(seed + 100))}}

		const n = 3000
		var pooled []Event
		var refs []*refEvent
		for i := 0; i < n; i++ {
			at := float64(rng.Intn(2000)) / 4
			prio := rng.Intn(5) - 1
			ev, err := got.e.ScheduleHandler(at, prio, &pooledEvent{got, got.nextID})
			if err != nil {
				t.Fatal(err)
			}
			got.nextID++
			pooled = append(pooled, ev)
			refs = append(refs, want.push(at, prio))

			// Cancel a random earlier event now and then.
			if i%7 == 3 {
				j := rng.Intn(i + 1)
				pooled[j].Cancel()
				refs[j].canceled = true
			}
		}
		got.e.Run(1e9)
		want.run()
		if want.f.spawned < maxSpawned {
			t.Fatalf("seed %d: the reference queued only %d follow-ups", seed, want.f.spawned)
		}
		if len(got.order) != len(want.order) {
			t.Fatalf("seed %d: executed %d events, reference executed %d", seed, len(got.order), len(want.order))
		}
		for i := range want.order {
			if got.order[i] != want.order[i] {
				t.Fatalf("seed %d: order diverges at %d: got %d want %d", seed, i, got.order[i], want.order[i])
			}
		}
	}
}

// TestPooledHeapNestedScheduling extends the pin to dynamically scheduled
// follow-up events (the hop-delay pattern), where slot reuse interleaves
// with execution.
func TestPooledHeapNestedScheduling(t *testing.T) {
	e := NewEngine()
	var order []int
	var chain func(id, depth int)
	chain = func(id, depth int) {
		order = append(order, id)
		if depth < 4 {
			if _, err := e.Schedule(e.Now()+0.5, id%2, func() { chain(id*10, depth+1) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i <= 5; i++ {
		id := i
		if _, err := e.Schedule(float64(i), 0, func() { chain(id, 0) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(100)
	// 5 chains x 5 links.
	if len(order) != 25 {
		t.Fatalf("ran %d events, want 25", len(order))
	}
	// Deterministic: rerunning yields the same order.
	e2 := NewEngine()
	var order2 []int
	var chain2 func(id, depth int)
	chain2 = func(id, depth int) {
		order2 = append(order2, id)
		if depth < 4 {
			if _, err := e2.Schedule(e2.Now()+0.5, id%2, func() { chain2(id*10, depth+1) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i <= 5; i++ {
		id := i
		if _, err := e2.Schedule(float64(i), 0, func() { chain2(id, 0) }); err != nil {
			t.Fatal(err)
		}
	}
	e2.Run(100)
	for i := range order {
		if order[i] != order2[i] {
			t.Fatalf("order diverges at %d", i)
		}
	}
}
