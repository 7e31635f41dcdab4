package pcn

import (
	"math"
	"runtime"
	"testing"
)

// TestPaymentLifecycleAllocs is the allocation gate of the payment
// lifecycle: arrival, dispatch, every TU's hops and settlement. It runs a
// fixed static 100-node Splicer cell, planned serially, on a trace replayed
// twice: the first pass warms the route cache, so the second pass's heap
// allocations per generated payment are the lifecycle's own, not route
// planning's (TestPathCoreAllocs gates that). It fails when they pass
// ⌈pin × 1.2⌉, the pin being the count measured when the gate was set. A
// payment is split into ≈ 5 TUs, so one allocation per TU (a closure for
// the hop timer, a contract slice per TU) trips it.
func TestPaymentLifecycleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped under -short: race runs use -short, and the race detector changes allocation counts")
	}
	const duration = 20.0
	g, trace := testGraphAndTrace(t, 21, 100, 40, duration)
	cfg := NewConfig(SchemeSplicer)
	cfg.Parallelism = 1 // no planning workers: every allocation is the cell's own
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BeginRun(2*duration + 5); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, tx := range trace {
			tx.ID += pass * len(trace)
			tx.Arrival += float64(pass) * duration
			tx.Deadline += float64(pass) * duration
			if err := n.ScheduleArrival(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n.runEngine(duration)
	sent := n.Metrics().Counter("tu_sent")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n.runEngine(2*duration + 5)
	runtime.ReadMemStats(&after)
	res, err := n.Execute(2*duration + 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 2*len(trace) || res.Completed < len(trace) {
		t.Fatalf("cell generated %d payments, completed %d; want %d generated, over half completed", res.Generated, res.Completed, 2*len(trace))
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	perPayment := float64(after.Mallocs-before.Mallocs) / float64(len(trace))
	tus := (n.Metrics().Counter("tu_sent") - sent) / float64(len(trace))
	const pin = 8.22
	ceiling := math.Ceil(pin * 1.2)
	t.Logf("%.2f allocs/payment, %.2f TUs sent/payment over the %d payments of the warm pass (pin %v, ceiling %v)", perPayment, tus, len(trace), pin, ceiling)
	if perPayment > ceiling {
		t.Errorf("the payment lifecycle allocates %.2f times per payment, ceiling %v (pin %v)", perPayment, ceiling, pin)
	}
}
