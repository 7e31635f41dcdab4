package sim

import (
	"fmt"
	"math"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	add := func(at float64, id int) {
		if _, err := e.Schedule(at, 0, func() { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	add(3, 3)
	add(1, 1)
	add(2, 2)
	e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("final time = %v, want horizon 10", e.Now())
	}
}

func TestTieBreaking(t *testing.T) {
	e := NewEngine()
	var order []string
	if _, err := e.Schedule(1, 5, func() { order = append(order, "low-prio") }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(1, 0, func() { order = append(order, "high-prio") }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(1, 0, func() { order = append(order, "fifo-second") }); err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	want := []string{"high-prio", "fifo-second", "low-prio"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestScheduleInPastRejected(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(1, 0, func() {}); err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if _, err := e.Schedule(2, 0, func() {}); err == nil {
		t.Fatal("scheduling in the past allowed")
	}
	if _, err := e.Schedule(5, 0, nil); err == nil {
		t.Fatal("nil action allowed")
	}
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	if _, err := e.Schedule(2, 0, func() {
		if _, err := e.Schedule(e.Now()+3, 0, func() { at = e.Now() }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if at != 5 {
		t.Fatalf("event scheduled at Now()+3 fired at %v, want 5", at)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev, err := e.Schedule(1, 0, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	e.Run(5)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	var times []float64
	if err := e.Every(0.2, 1.0, 0, func() { times = append(times, e.Now()) }); err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	// Ticks at 0.2, 0.4, 0.6, 0.8 (1.0 excluded).
	if len(times) != 4 {
		t.Fatalf("ticks = %v", times)
	}
	for i, want := range []float64{0.2, 0.4, 0.6, 0.8} {
		if math.Abs(times[i]-want) > 1e-9 {
			t.Fatalf("tick %d at %v, want %v", i, times[i], want)
		}
	}
}

func TestEveryValidation(t *testing.T) {
	e := NewEngine()
	if err := e.Every(0, 1, 0, func() {}); err == nil {
		t.Fatal("zero interval allowed")
	}
}

func TestHorizonStopsEvents(t *testing.T) {
	e := NewEngine()
	fired := false
	if _, err := e.Schedule(100, 0, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 10 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	m.Add("sent", 1)
	m.Add("sent", 2)
	if m.Counter("sent") != 3 {
		t.Fatalf("counter = %v", m.Counter("sent"))
	}
	if m.Counter("missing") != 0 {
		t.Fatal("missing counter not zero")
	}
}

func TestMetricsHistograms(t *testing.T) {
	m := NewMetrics()
	h := m.SampleHandle("delay")
	if !math.IsNaN(m.Mean("delay")) {
		t.Fatal("a histogram with no observation should have a NaN mean")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		m.ObserveHandle(h, v)
	}
	if m.Mean("delay") != 3 {
		t.Fatalf("mean = %v", m.Mean("delay"))
	}
	if !math.IsNaN(m.Mean("empty")) {
		t.Fatal("an unknown histogram should have a NaN mean")
	}
}

func TestMetricsCounterNames(t *testing.T) {
	m := NewMetrics()
	m.Add("b", 1)
	m.Add("a", 1)
	names := m.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestNestedScheduling(t *testing.T) {
	// Events scheduled from within events run at the right times.
	e := NewEngine()
	var log []float64
	var recurse func(depth int)
	recurse = func(depth int) {
		log = append(log, e.Now())
		if depth < 3 {
			if _, err := e.Schedule(e.Now()+1, 0, func() { recurse(depth + 1) }); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := e.Schedule(0, 0, func() { recurse(0) }); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	want := []float64{0, 1, 2, 3}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v", log)
		}
	}
}

func TestRunResumableAcrossHorizons(t *testing.T) {
	// A Run that stops at the horizon must leave the first past-horizon
	// event queued: the seed engine popped it, dropping one event per Run.
	e := NewEngine()
	var order []int
	for _, at := range []float64{1, 2, 3} {
		at := at
		if _, err := e.Schedule(at, 0, func() { order = append(order, int(at)) }); err != nil {
			t.Fatal(err)
		}
	}
	if now := e.Run(1.5); now != 1.5 {
		t.Fatalf("first run ended at %v, want 1.5", now)
	}
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("after first run order = %v, want [1]", order)
	}
	if now := e.Run(10); now != 10 {
		t.Fatalf("second run ended at %v, want 10", now)
	}
	if len(order) != 3 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("after second run order = %v, want [1 2 3]", order)
	}
}

func TestRunRepeatedSameHorizonIdempotent(t *testing.T) {
	e := NewEngine()
	ran := 0
	if _, err := e.Schedule(5, 0, func() { ran++ }); err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	e.Run(2)
	e.Run(2)
	if ran != 0 {
		t.Fatalf("event at t=5 ran %d times before its horizon", ran)
	}
	e.Run(6)
	if ran != 1 {
		t.Fatalf("event ran %d times, want 1", ran)
	}
}

func TestRunSkipsCanceledHeadBeyondHorizonCheck(t *testing.T) {
	// A canceled event at the head of the queue must be discarded even when
	// it lies beyond the horizon, so it cannot shadow the horizon logic
	// forever.
	e := NewEngine()
	ev, err := e.Schedule(5, 0, func() { t.Fatal("canceled event ran") })
	if err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	if now := e.Run(10); now != 10 {
		t.Fatalf("run ended at %v, want 10", now)
	}
}

func TestEveryNoDriftOverManyTicks(t *testing.T) {
	// Tick i must fire at exactly i*interval: the seed accumulated
	// next += interval, whose rounding error compounds over long runs and
	// desynchronizes the τ grid from ceil(t/τ)·τ epoch alignment.
	e := NewEngine()
	const interval = 0.1
	const ticks = 100000
	until := float64(ticks)*interval + interval/2
	i := 0
	err := e.Every(interval, until, 0, func() {
		i++
		if want := float64(i) * interval; e.Now() != want {
			t.Fatalf("tick %d fired at %v, want exactly %v (drift %g)", i, e.Now(), want, e.Now()-want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(until + 1)
	if i != ticks {
		t.Fatalf("ran %d ticks, want %d", i, ticks)
	}
}

func TestRunNeverRewindsTime(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(5, 0, func() {}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(15, 0, func() {}); err != nil {
		t.Fatal(err)
	}
	if now := e.Run(10); now != 10 {
		t.Fatalf("first run ended at %v, want 10", now)
	}
	// A smaller horizon must be a no-op, not a time rewind (which would let
	// Schedule accept timestamps in the already-executed past).
	if now := e.Run(3); now != 10 {
		t.Fatalf("Run(3) rewound time to %v, want 10", now)
	}
	if _, err := e.Schedule(4, 0, func() {}); err == nil {
		t.Fatal("Schedule accepted a timestamp in the executed past")
	}
}

// recorder is a Handler that logs its firings.
type recorder struct {
	name  string
	order *[]string
}

func (r *recorder) Fire() { *r.order = append(*r.order, r.name) }

// TestHandlerEvents: Handler events take the same (time, priority, seq)
// order as func events, cancel like them, and scheduling rejects a nil
// Handler and a priority the slot cannot hold.
func TestHandlerEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	h := func(name string) Handler { return &recorder{name, &order} }
	if _, err := e.ScheduleHandler(1, 1, h("handler-prio1")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(1, 0, func() { order = append(order, "func-prio0") }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ScheduleHandler(e.Now()+1, 0, h("handler-prio0")); err != nil {
		t.Fatal(err)
	}
	ev, err := e.ScheduleHandler(0.5, 0, h("canceled"))
	if err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	if _, err := e.ScheduleHandler(1, math.MinInt32, h("handler-min")); err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	want := []string{"handler-min", "func-prio0", "handler-prio0", "handler-prio1"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if _, err := e.ScheduleHandler(3, 0, nil); err == nil {
		t.Fatal("nil Handler allowed")
	}
	if big := int64(math.MaxInt32) + 1; int64(int(big)) == big { // 64-bit int
		if _, err := e.Schedule(3, int(big), func() {}); err == nil {
			t.Fatal("priority beyond int32 allowed")
		}
	}
}

// TestLaneEventsSurviveHorizon: a lane event past the horizon stays queued,
// counts as pending and fires on the next Run, merged in order with
// the heap.
func TestLaneEventsSurviveHorizon(t *testing.T) {
	e := NewEngine()
	lane, err := e.NewLane(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	h := func(name string) Handler { return &recorder{name, &order} }
	lane.Push(h("lane@2"))
	if _, err := e.Schedule(1, 0, func() {
		order = append(order, "heap@1")
		lane.Push(h("lane@3"))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ScheduleHandler(2.5, 0, h("heap@2.5")); err != nil {
		t.Fatal(err)
	}
	if now := e.Run(1.5); now != 1.5 {
		t.Fatalf("first run ended at %v, want 1.5", now)
	}
	if len(order) != 1 || pending(e) != 3 {
		t.Fatalf("after Run(1.5): order %v, %d pending; want [heap@1] and 3 pending", order, pending(e))
	}
	if now := e.Run(10); now != 10 {
		t.Fatalf("second run ended at %v, want 10", now)
	}
	want := []string{"heap@1", "lane@2", "heap@2.5", "lane@3"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if pending(e) != 0 {
		t.Fatalf("%d pending, want 0", pending(e))
	}
}

// TestNewLaneValidation: a lane needs a finite, non-negative delay and an
// int32 priority, and refuses a nil action.
func TestNewLaneValidation(t *testing.T) {
	e := NewEngine()
	for _, d := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := e.NewLane(d, 0); err == nil {
			t.Errorf("lane delay %v allowed", d)
		}
	}
	if big := int64(math.MaxInt32) + 1; int64(int(big)) == big { // 64-bit int
		if _, err := e.NewLane(1, int(big)); err == nil {
			t.Error("lane priority beyond int32 allowed")
		}
	}
	lane, err := e.NewLane(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("nil lane action allowed")
		}
	}()
	lane.Push(nil)
}

// pending is the number of live (scheduled, not canceled) events, lane
// events included.
func pending(e *Engine) int { return len(e.heap) - e.nCanceled + e.laneEvents }
