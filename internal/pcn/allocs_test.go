package pcn

import (
	"math"
	"runtime"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// TestPaymentLifecycleAllocs is the allocation gate of the payment
// lifecycle: arrival, dispatch, every TU's hops, queueing and settlement. It
// runs a fixed static 100-node cell, planned serially, on a trace replayed
// twice: the first pass warms the route cache, so the second pass's heap
// allocations per generated payment are the lifecycle's own, not route
// planning's (TestPathCoreAllocs gates that). It fails when they pass
// ⌈pin × 1.2⌉, the pin being the count measured when the gate was set.
//
// Two cells: Splicer on the generated channels, where a payment is split
// into ≈ 3 TUs, so one allocation per TU (a closure for the hop timer, a
// contract slice per TU) trips it; and Spider on channels holding a tenth of
// those funds, where ≈ 2.6 TUs per payment wait in a channel queue, so one
// allocation per queued TU (a queue entry or a resume closure) trips it. In
// the first cell only ≈ 0.3 TUs per payment queue, too few to show.
func TestPaymentLifecycleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped under -short: race runs use -short, and the race detector changes allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name     string
		scheme   Scheme
		capScale float64
		minTSR   float64 // a sanity floor: the cell forwards payments
		pin      float64
	}{
		{"splicer", SchemeSplicer, 1, 0.5, 5.23},
		{"spider-queueing", SchemeSpider, 0.1, 0.25, 5.27},
	} {
		t.Run(c.name, func(t *testing.T) {
			const duration = 20.0
			g, trace := testGraphAndTrace(t, 21, 100, 40, duration)
			for i := 0; i < g.NumEdges(); i++ {
				e := g.Edge(graph.EdgeID(i))
				g.SetCapacity(e.ID, e.CapFwd*c.capScale, e.CapRev*c.capScale)
			}
			cfg := NewConfig(c.scheme)
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
			n.runEngine(duration)
			sent, queued := n.metrics.Counter("tu_sent"), n.metrics.Counter("tu_queued")
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n.runEngine(2*duration + 5)
			runtime.ReadMemStats(&after)
			res, err := n.Execute(2*duration + 5)
			if err != nil {
				t.Fatal(err)
			}
			if res.Generated != 2*len(trace) || res.TSR < c.minTSR {
				t.Fatalf("cell generated %d payments at TSR %.3f; want %d generated, TSR at least %v", res.Generated, res.TSR, 2*len(trace), c.minTSR)
			}
			if err := n.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			perPayment := float64(after.Mallocs-before.Mallocs) / float64(len(trace))
			tus := (n.metrics.Counter("tu_sent") - sent) / float64(len(trace))
			waits := (n.metrics.Counter("tu_queued") - queued) / float64(len(trace))
			ceiling := math.Ceil(c.pin * 1.2)
			t.Logf("%.2f allocs/payment, %.2f TUs sent and %.2f queued per payment over the %d payments of the warm pass (pin %v, ceiling %v)", perPayment, tus, waits, len(trace), c.pin, ceiling)
			if perPayment > ceiling {
				t.Errorf("the payment lifecycle allocates %.2f times per payment, ceiling %v (pin %v)", perPayment, ceiling, c.pin)
			}
		})
	}
}
