package sim

// Sim-core microbenchmarks: the per-event cost every simulated second pays.
// The schedule→run, cancel-churn, nested-timer and metrics-handle bodies are
// shared with TestSimCoreAllocs, which runs each under testing.AllocsPerRun
// and fails when it allocates, so a regression in the pooled event queue or
// the metrics hot path fails `go test ./...`.

import "testing"

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
			_, c.err = e.After(1, 0, c.tick)
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
// hop is one After + one pop).
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
// schedule→run batch, one cancel-churn batch, one 1024-event timer chain
// and one metrics hop must each allocate nothing once the engine's slot
// arena and the histogram's reservoir are warm.
func TestSimCoreAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped under -short: race runs use -short, and the race detector changes allocation counts")
	}
	action := func() {}
	scheduleEngine, cancelEngine := NewEngine(), NewEngine()
	chain := newTimerChain(NewEngine())
	hop := metricsHop(NewMetrics())
	for i := 0; i < sampleCap; i++ {
		hop(i) // fill the reservoir: the steady state appends nothing
	}
	i := 0
	cases := []struct {
		name string
		body func() error
	}{
		{"engine_schedule_run", func() error { return scheduleRunBatch(scheduleEngine, action, batch) }},
		{"engine_cancel_churn", func() error { return cancelChurnBatch(cancelEngine, action, batch) }},
		{"engine_nested_timers", func() error { return chain.run(batch) }},
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

// BenchmarkMetricsStringAPI is the same mix through the name-based API
// (one map hash per call) — the cost the handle interning removes.
func BenchmarkMetricsStringAPI(b *testing.B) {
	m := NewMetrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add("tu_completed", 1)
		m.Add("fees", 0.01)
		m.Observe("queue_delay", float64(i%100)*0.001)
	}
}
