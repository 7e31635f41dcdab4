package sim

// Sim-core microbenchmarks: the per-event cost every simulated second pays.
// The schedule→run, cancel-churn, nested-timer, hop-lane and metrics-handle
// bodies are shared with TestSimCoreAllocs, which runs each under testing.AllocsPerRun
// and fails when it allocates, so a regression in the pooled event queue or
// the metrics hot path fails `go test ./...`.

import (
	"fmt"
	"runtime"
	"testing"
)

// batch is how many events one schedule→run or cancel-churn round queues
// before draining them.
const batch = 1024

// scheduleRunBatch schedules n events over seven fire times and three
// priorities, then runs the engine past all of them.
func scheduleRunBatch(e *Engine, action func(), n int) error {
	t := e.Now()
	for i := 0; i < n; i++ {
		if _, err := e.Schedule(t+float64(i%7)+1, i%3, action); err != nil {
			return err
		}
	}
	e.Run(t + 16)
	return nil
}

// cancelChurnBatch schedules n deadline events and cancels 7 of every 8
// before running past them.
func cancelChurnBatch(e *Engine, action func(), n int) error {
	t := e.Now()
	for i := 0; i < n; i++ {
		ev, err := e.Schedule(t+100, 0, action)
		if err != nil {
			return err
		}
		if i%8 != 0 {
			ev.Cancel() // 7 of 8 deadline events never fire
		}
	}
	e.Run(t + 200)
	return nil
}

// timerChain is a self-rescheduling event: each firing schedules its
// successor one time unit later.
type timerChain struct {
	e        *Engine
	fired, n int
	err      error
	tick     func()
}

func newTimerChain(e *Engine) *timerChain {
	c := &timerChain{e: e}
	c.tick = func() {
		c.fired++
		if c.fired < c.n && c.err == nil {
			_, c.err = e.Schedule(e.Now()+1, 0, c.tick)
		}
	}
	return c
}

// run fires a chain of n events to completion.
func (c *timerChain) run(n int) error {
	c.fired, c.n = 0, n
	start := c.e.Now()
	if _, err := c.e.Schedule(start+1, 0, c.tick); err != nil {
		return err
	}
	c.e.Run(start + float64(n) + 2)
	return c.err
}

// hopUnits models transaction units forwarded hop by hop: width units in
// flight, each re-pushing itself onto a lane when it fires, beside a
// self-rescheduling heap event per delay (the τ tick), so Run merges the
// two queues the way a payment run does.
type hopUnits struct {
	e            *Engine
	lane         *Lane
	units        []hopUnit
	fired, n     int
	ticks, tickN int
	tick         func() // the heap event, made once: a method value per Schedule would allocate
	err          error
}

// hopUnit is one unit's hop timer.
type hopUnit struct{ h *hopUnits }

func (u *hopUnit) Fire() {
	h := u.h
	h.fired++
	if h.fired+len(h.units) <= h.n {
		h.lane.Push(u)
	}
}

func newHopUnits(e *Engine, width int) (*hopUnits, error) {
	lane, err := e.NewLane(1, 3)
	if err != nil {
		return nil, err
	}
	h := &hopUnits{e: e, lane: lane, units: make([]hopUnit, width)}
	for i := range h.units {
		h.units[i].h = h
	}
	// The heap side: one event per lane delay while units are in flight.
	h.tick = func() {
		h.ticks++
		if h.ticks < h.tickN && h.err == nil {
			_, h.err = h.e.Schedule(h.e.Now()+1, 0, h.tick)
		}
	}
	return h, nil
}

// run fires n lane events (n >= width) to completion.
func (h *hopUnits) run(n int) error {
	h.fired, h.n = 0, n
	h.ticks, h.tickN = 0, n/len(h.units)+1
	start := h.e.Now()
	for i := range h.units {
		h.lane.Push(&h.units[i])
	}
	if _, err := h.e.Schedule(start+0.5, 0, h.tick); err != nil {
		return err
	}
	h.e.Run(start + float64(n/len(h.units)) + 4)
	if h.err == nil && h.fired != n {
		return fmt.Errorf("hop lane fired %d events, want %d", h.fired, n)
	}
	return h.err
}

// metricsHop returns the per-hop metrics pattern of a settled hop in
// payment.go: two counter adds and one histogram observation through
// handles resolved once.
func metricsHop(m *Metrics) func(i int) {
	tuCompleted := m.CounterHandle("tu_completed")
	fees := m.CounterHandle("fees")
	queueDelay := m.SampleHandle("queue_delay")
	return func(i int) {
		m.AddHandle(tuCompleted, 1)
		m.AddHandle(fees, 0.01)
		m.ObserveHandle(queueDelay, float64(i%100)*0.001)
	}
}

// BenchmarkEngineScheduleRun measures the schedule→pop→run cycle: b.N events
// through an engine in batches, the dominant pattern of a payment run (every
// hop is one Schedule + one pop).
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	action := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		if err := scheduleRunBatch(e, action, min(batch, b.N-n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCancelChurn measures the deadline-watchdog pattern of
// long-horizon churn runs: most scheduled events are canceled before they
// fire (payments finish before their deadline).
func BenchmarkEngineCancelChurn(b *testing.B) {
	e := NewEngine()
	action := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		if err := cancelChurnBatch(e, action, min(batch, b.N-n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineNestedTimers measures self-rescheduling event chains (the
// τ-tick and hop-delay pattern): each event schedules its successor.
func BenchmarkEngineNestedTimers(b *testing.B) {
	c := newTimerChain(NewEngine())
	b.ReportAllocs()
	b.ResetTimer()
	if err := c.run(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineHopLane measures the transaction-unit hop pattern on a
// lane: 512 units in flight, each firing once per hop delay and re-pushing
// itself, merged with one heap event per delay.
func BenchmarkEngineHopLane(b *testing.B) {
	h, err := newHopUnits(NewEngine(), 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := h.run(max(b.N, 512)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMetricsHot measures the per-hop metrics pattern (metricsHop).
func BenchmarkMetricsHot(b *testing.B) {
	hop := metricsHop(NewMetrics())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop(i)
	}
}

// TestSimCoreAllocs is the allocation gate of the sim-core hot paths: one
// schedule→run batch, one cancel-churn batch, one 1024-event timer chain,
// one 1024-event hop-lane run and one metrics hop must each allocate
// nothing once the engine's slot arena and the lane's ring are warm. A
// histogram keeps no samples, so the metrics hop allocates nothing from its
// first observation on.
func TestSimCoreAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped under -short: race runs use -short, and the race detector changes allocation counts")
	}
	action := func() {}
	scheduleEngine, cancelEngine := NewEngine(), NewEngine()
	chain := newTimerChain(NewEngine())
	hops, err := newHopUnits(NewEngine(), 64)
	if err != nil {
		t.Fatal(err)
	}
	hop := metricsHop(NewMetrics())
	if n := mallocs(func() { hop(0) }); n != 0 {
		t.Errorf("metrics_hot: the first observation allocates %d times, want 0", n)
	}
	i := 1
	cases := []struct {
		name string
		body func() error
	}{
		{"engine_schedule_run", func() error { return scheduleRunBatch(scheduleEngine, action, batch) }},
		{"engine_cancel_churn", func() error { return cancelChurnBatch(cancelEngine, action, batch) }},
		{"engine_nested_timers", func() error { return chain.run(batch) }},
		{"engine_hop_lane", func() error { return hops.run(batch) }},
		{"metrics_hot", func() error { hop(i); i++; return nil }},
	}
	for _, tc := range cases {
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			if e := tc.body(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %v allocs/run", tc.name, allocs)
		if allocs != 0 {
			t.Errorf("%s allocates %v times per run, want 0", tc.name, allocs)
		}
	}
}

// mallocs counts the heap allocations of one call of f, with no warm-up
// call before it (testing.AllocsPerRun makes one).
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkMetricsStringAPI is the same mix through the name-based API
// (one map hash per call) — the cost the handle interning removes.
func BenchmarkMetricsStringAPI(b *testing.B) {
	m := NewMetrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add("tu_completed", 1)
		m.Add("fees", 0.01)
		m.ObserveHandle(m.SampleHandle("queue_delay"), float64(i%100)*0.001)
	}
}
