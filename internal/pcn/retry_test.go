package pcn

import (
	"math"
	"reflect"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/reliability"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// detourGraph has a 2-hop route 0-1-4 whose last hop cannot carry a
// 10-token TU (forward balance 5) and a 3-hop detour 0-2-3-4 with ample
// balance everywhere. The capacity-blind shortest-path planner always picks
// the short route first, so the first attempt deterministically dies with
// no_funds at edge 1-4 — the retry layer's bread-and-butter case.
func detourGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(5)
	for _, e := range []struct {
		u, v     graph.NodeID
		fwd, rev float64
	}{
		{0, 1, 100, 100},
		{1, 4, 5, 100},
		{0, 2, 100, 100},
		{2, 3, 100, 100},
		{3, 4, 100, 100},
	} {
		if _, err := g.AddEdge(e.u, e.v, e.fwd, e.rev); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

var detourTrace = []workload.Tx{{
	ID: 0, Sender: 0, Recipient: 4, Value: 10, Arrival: 0.1, Deadline: 3.1,
}}

func TestRetryRecoversNoFunds(t *testing.T) {
	// Unarmed baseline: the payment dies on the underfunded hop.
	n, err := NewNetwork(detourGraph(t), NewConfig(SchemeShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Run(detourTrace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatalf("unarmed run completed %d payments, want 0", res.Completed)
	}
	if res.FailureReasons["no_funds"] == 0 {
		t.Fatalf("unarmed failure not attributed to no_funds: %v", res.FailureReasons)
	}
	if res.RetryAttempts != 0 {
		t.Fatalf("unarmed run recorded %d retry attempts", res.RetryAttempts)
	}

	// Armed: the retry re-plans around the failed hop onto the detour. The
	// detour is longer than the first path, so the TU's contract chain,
	// reset for the retry, outgrows the size it took at its first lock and
	// must still settle every hop.
	cfg := NewConfig(SchemeShortestPath)
	cfg.Retry = reliability.NewConfig()
	n, err = NewNetwork(detourGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = n.Run(detourTrace); err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("armed run did not recover the payment: %+v", res)
	}
	if res.RetryAttempts != 1 || res.RetryRecovered != 1 || res.RetryExhausted != 0 {
		t.Fatalf("retry counters = %d/%d/%d, want 1 attempt, 1 recovered, 0 exhausted",
			res.RetryAttempts, res.RetryRecovered, res.RetryExhausted)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// The store saw the failing hop and vouched for the 3 detour hops.
	if st := n.ReliabilityStats(); st.Failures != 1 || st.Successes != 3 {
		t.Fatalf("store stats = %+v, want 1 failure, 3 successes", st)
	}
}

// splitShortestPolicy is the shortest-path baseline with every payment split
// into three equal TUs on its one path, so one payment's TUs share a slab.
type splitShortestPolicy struct{ shortestPathPolicy }

func (p splitShortestPolicy) Plan(n *Network, tx workload.Tx) ([]graph.Path, []Allocation, error) {
	paths, allocs, err := p.shortestPathPolicy.Plan(n, tx)
	if len(allocs) == 0 {
		return paths, allocs, err
	}
	third := Allocation{PathIdx: 0, Value: tx.Value / 3}
	return paths, []Allocation{third, third, third}, err
}

// TestRetryOntoLongerPathOutgrowsSlab: a payment's TUs keep their hop
// states in one slab, a slot per TU sized for the longest planned path (2
// hops on detourGraph). Three 4-token TUs take the short route; the first
// drains the 5-token hop, the other two die there with no_funds and retry
// onto the 3-hop detour, outgrowing their slots. Both must still settle
// every hop, next to a sibling that settled in its own slot, with funds
// conserved.
func TestRetryOntoLongerPathOutgrowsSlab(t *testing.T) {
	cfg := NewConfig(SchemeShortestPath)
	cfg.Policy = splitShortestPolicy{shortestPathPolicy{basePolicy{SchemeShortestPath}}}
	cfg.Retry = reliability.NewConfig()
	n, err := NewNetwork(detourGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx := detourTrace[0]
	tx.Value = 12
	res, err := n.Run([]workload.Tx{tx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("payment did not complete: %+v", res)
	}
	if res.RetryAttempts != 2 || res.RetryRecovered != 2 || res.RetryExhausted != 0 {
		t.Fatalf("retry counters = %d/%d/%d, want 2 attempts, 2 recovered, 0 exhausted",
			res.RetryAttempts, res.RetryRecovered, res.RetryExhausted)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// The store vouched for 2 short-route hops and twice 3 detour hops.
	if st := n.ReliabilityStats(); st.Failures != 2 || st.Successes != 8 {
		t.Fatalf("store stats = %+v, want 2 failures, 8 successes", st)
	}
}

// TestRetryExhaustsWhenEveryRouteFails pins the bounded-loop endgame: both
// diamond routes are underfunded at the far hop, the first retry finds the
// second route (avoiding the failed hop), and the second re-plan is boxed in
// — one route avoided, the other inside its exclusion window — so the TU
// resolves as exhausted, funds conserved.
func TestRetryExhaustsWhenEveryRouteFails(t *testing.T) {
	g := graph.New(4)
	for _, e := range []struct {
		u, v     graph.NodeID
		fwd, rev float64
	}{
		{0, 1, 100, 100},
		{1, 3, 5, 100},
		{0, 2, 100, 100},
		{2, 3, 5, 100},
	} {
		if _, err := g.AddEdge(e.u, e.v, e.fwd, e.rev); err != nil {
			t.Fatal(err)
		}
	}
	cfg := NewConfig(SchemeShortestPath)
	cfg.Retry = reliability.NewConfig()
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Run([]workload.Tx{{
		ID: 0, Sender: 0, Recipient: 3, Value: 10, Arrival: 0.1, Deadline: 3.1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatalf("payment completed despite every route being underfunded: %+v", res)
	}
	if res.RetryAttempts != 1 || res.RetryExhausted != 1 || res.RetryRecovered != 0 {
		t.Fatalf("retry counters = %d/%d/%d, want 1 attempt, 0 recovered, 1 exhausted",
			res.RetryAttempts, res.RetryRecovered, res.RetryExhausted)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// A resurrected abort is not a resolution, so only the final exhausted
	// attempt lands in the failure breakdown — no double counting.
	if res.FailureReasons["no_funds"] != 1 {
		t.Fatalf("expected exactly the final abort attributed to no_funds: %v", res.FailureReasons)
	}
}

// TestRetryDeterminism pins that an armed run is a pure function of its
// inputs: same graph, trace, and retry seed → identical Result, twice.
func TestRetryDeterminism(t *testing.T) {
	run := func() Result {
		// The capacity-blind baseline under a heavy trace: plenty of no_funds
		// aborts, so the retry path actually executes.
		g, trace := testGraphAndTrace(t, 41, 40, 120, 4)
		cfg := NewConfig(SchemeShortestPath)
		cfg.Retry = reliability.NewConfig()
		cfg.Retry.Seed = 7
		n, err := NewNetwork(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(res.MeanQueueDelay) {
			res.MeanQueueDelay = 0 // NaN breaks DeepEqual; queueless scheme
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("armed runs diverged:\n%+v\n%+v", a, b)
	}
	if a.RetryAttempts == 0 {
		t.Fatal("determinism run exercised no retries; test is vacuous")
	}
}

// TestRetryConservesAcrossSchemes runs a real workload with retries armed
// under both a queueing and a non-queueing scheme and checks the ledger:
// total channel funds unchanged, nothing left locked.
func TestRetryConservesAcrossSchemes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeSplicer, SchemeShortestPath} {
		g, trace := testGraphAndTrace(t, 43, 40, 40, 4)
		cfg := NewConfig(scheme)
		cfg.Retry = reliability.NewConfig()
		n, err := NewNetwork(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := totalFunds(n)
		res, err := n.Run(trace)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if err := n.CheckConservation(); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if after := totalFunds(n); math.Abs(after-before) > 1e-6 {
			t.Fatalf("%v: funds not conserved with retries armed: %v -> %v", scheme, before, after)
		}
		if res.Generated == 0 {
			t.Fatalf("%v: vacuous run", scheme)
		}
	}
}

func TestRetryReasonClassification(t *testing.T) {
	for _, r := range []string{"no_funds", "queue_full", "channel_closed", "lock_race"} {
		if !retryableReason(r) || !observableReason(r) {
			t.Errorf("%s must be retryable and observable", r)
		}
	}
	if retryableReason("deadline") {
		t.Error("deadline aborts must not retry (budget already spent)")
	}
	if !observableReason("deadline") {
		t.Error("deadline aborts must still penalize the stuck hop")
	}
	for _, r := range []string{"held_released", "sibling_failed", "no_route", "no_flow", "htlc_expired"} {
		if retryableReason(r) {
			t.Errorf("%s must not be retryable", r)
		}
	}
}
