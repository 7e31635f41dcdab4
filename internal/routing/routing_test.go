package routing

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/topology"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := topology.WattsStrogatz(rng.New(5), 40, 4, 0.3, func() (float64, float64) { return 100, 100 })
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSelectPathsAllTypes(t *testing.T) {
	g := testGraph(t)
	for _, pt := range []PathType{KSP, Heuristic, EDW, EDS} {
		paths, err := SelectPathsWith(graph.NewPathFinder(g), 0, 20, 3, pt)
		if err != nil {
			t.Fatalf("%v: %v", pt, err)
		}
		if len(paths) == 0 {
			t.Fatalf("%v: no paths", pt)
		}
		for _, p := range paths {
			if !p.Valid(g) {
				t.Fatalf("%v: invalid path %+v", pt, p)
			}
			if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 20 {
				t.Fatalf("%v: endpoints wrong: %+v", pt, p)
			}
		}
	}
}

func TestSelectPathsEdgeDisjointness(t *testing.T) {
	g := testGraph(t)
	for _, pt := range []PathType{EDW, EDS} {
		paths, err := SelectPathsWith(graph.NewPathFinder(g), 0, 20, 5, pt)
		if err != nil {
			t.Fatal(err)
		}
		used := map[graph.EdgeID]bool{}
		for _, p := range paths {
			for _, e := range p.Edges {
				if used[e] {
					t.Fatalf("%v returned non-disjoint paths", pt)
				}
				used[e] = true
			}
		}
	}
}

func TestSelectPathsValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := SelectPathsWith(graph.NewPathFinder(g), 0, 1, 0, EDW); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := SelectPathsWith(graph.NewPathFinder(g), 0, 1, 3, PathType(99)); err == nil {
		t.Fatal("bogus path type accepted")
	}
}

func TestPathTypeByName(t *testing.T) {
	for _, name := range []string{"KSP", "Heuristic", "EDW", "EDS"} {
		pt, err := PathTypeByName(name)
		if err != nil || pt.String() != name {
			t.Fatalf("PathTypeByName(%q) = %v, %v", name, pt, err)
		}
	}
	if _, err := PathTypeByName("XXX"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestSplitDemandBasic(t *testing.T) {
	tus, err := SplitDemand(9, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range tus {
		if v < 1-1e-9 || v > 4+1e-9 {
			t.Fatalf("TU %v outside [1,4]: %v", v, tus)
		}
		sum += v
	}
	if math.Abs(sum-9) > 1e-9 {
		t.Fatalf("TUs sum to %v, want 9", sum)
	}
}

func TestSplitDemandSmallValue(t *testing.T) {
	tus, err := SplitDemand(0.5, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tus) != 1 || tus[0] != 0.5 {
		t.Fatalf("tus = %v", tus)
	}
}

func TestSplitDemandSubMinRemainder(t *testing.T) {
	// 8.5 with Max-TU 4 → naive [4, 4, 0.5] violates Min-TU; the splitter
	// must rebalance.
	tus, err := SplitDemand(8.5, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range tus {
		if v < 1-1e-9 || v > 4+1e-9 {
			t.Fatalf("TU %v outside bounds: %v", v, tus)
		}
		sum += v
	}
	if math.Abs(sum-8.5) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestSplitDemandValidation(t *testing.T) {
	if _, err := SplitDemand(0, 1, 4); err == nil {
		t.Fatal("zero demand accepted")
	}
	if _, err := SplitDemand(5, 0, 4); err == nil {
		t.Fatal("zero minTU accepted")
	}
	if _, err := SplitDemand(5, 4, 1); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

// TestSplitDemandRejectsNonFinite: +Inf would never leave the split loop
// and NaN would come back as one NaN unit; both are errors.
func TestSplitDemandRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if tus, err := SplitDemand(v, 1, 4); err == nil {
			t.Fatalf("SplitDemand(%v) = %v, want an error", v, tus)
		}
	}
}

func TestPropertySplitDemand(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		value := src.Float64()*200 + 0.01
		tus, err := SplitDemand(value, 1, 4)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range tus {
			sum += v
			if v <= 0 || v > 4+1e-9 {
				return false
			}
			if value > 4 && v < 1-1e-9 {
				return false
			}
		}
		return math.Abs(sum-value) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func newRC(t *testing.T, k int) *RateController {
	t.Helper()
	rc, err := NewRateController(k, 0.1, 10, 0.1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func TestRateControllerValidation(t *testing.T) {
	if _, err := NewRateController(0, 0.1, 10, 0.1, 1, 4); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewRateController(2, 0, 10, 0.1, 1, 4); err == nil {
		t.Fatal("alpha=0 accepted")
	}
	if _, err := NewRateController(2, 0.1, 10, 0.1, 0, 4); err == nil {
		t.Fatal("zero init rate accepted")
	}
}

func TestRateRisesWhenCheap(t *testing.T) {
	rc := newRC(t, 2)
	r0 := rc.rates[0]
	// Price below U'(r) = 1/2: rate must rise.
	rc.UpdateRate(0, 0)
	if rc.rates[0] <= r0 {
		t.Fatal("rate did not rise on zero price")
	}
}

func TestRateFallsWhenExpensive(t *testing.T) {
	rc := newRC(t, 2)
	r0 := rc.rates[0]
	rc.UpdateRate(0, 100)
	if rc.rates[0] >= r0 {
		t.Fatal("rate did not fall on high price")
	}
	// Rate never falls below MinRate.
	for i := 0; i < 1000; i++ {
		rc.UpdateRate(0, 100)
	}
	if rc.rates[0] < rc.MinRate {
		t.Fatalf("rate %v below floor %v", rc.rates[0], rc.MinRate)
	}
}

func TestRateEquilibrium(t *testing.T) {
	// At price exactly U'(r) the rate is stationary.
	rc := newRC(t, 1)
	price := 1 / rc.TotalRate()
	r0 := rc.rates[0]
	rc.UpdateRate(0, price)
	if math.Abs(rc.rates[0]-r0) > 1e-12 {
		t.Fatalf("rate moved at equilibrium: %v -> %v", r0, rc.rates[0])
	}
}

func TestWindowDynamics(t *testing.T) {
	rc := newRC(t, 2)
	w0 := rc.windows[0]
	rc.OnSend(0, 1)
	rc.OnSuccess(0)
	if rc.windows[0] <= w0 {
		t.Fatal("window did not grow on success")
	}
	w1 := rc.windows[0]
	rc.OnSend(0, 1)
	rc.OnAbort(0)
	if rc.windows[0] >= w1 {
		t.Fatal("window did not shrink on abort")
	}
	for i := 0; i < 100; i++ {
		rc.OnSend(0, 1)
		rc.OnAbort(0)
	}
	if rc.windows[0] < rc.MinWindow {
		t.Fatalf("window %v below floor", rc.windows[0])
	}
}

func TestWindowGatesSending(t *testing.T) {
	rc, err := NewRateController(1, 0.1, 10, 0.1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.CanSend(0, 1) {
		t.Fatal("fresh path cannot send")
	}
	rc.OnSend(0, 1)
	rc.OnSend(0, 1)
	if rc.CanSend(0, 1) {
		t.Fatal("window not enforced")
	}
	if rc.PickPath(1) != -1 {
		t.Fatal("PickPath returned window-blocked path")
	}
	rc.OnSuccess(0)
	if !rc.CanSend(0, 1) {
		t.Fatal("completion did not free window slot")
	}
}

func TestPickPathPrefersFastEmptyPath(t *testing.T) {
	rc := newRC(t, 2)
	// Path 0 faster.
	rc.UpdateRate(0, 0)
	rc.UpdateRate(0, 0)
	if rc.PickPath(1) != 0 {
		t.Fatal("did not pick the fastest path")
	}
	// Load path 0 heavily; path 1 becomes preferable.
	rc.OnSend(0, 1)
	rc.OnSend(0, 1)
	rc.OnSend(0, 1)
	if rc.PickPath(1) != 1 {
		t.Fatal("did not spread load to the idle path")
	}
}

func TestInflightNeverNegative(t *testing.T) {
	rc := newRC(t, 1)
	rc.OnSuccess(0) // completion without send
	if rc.inflight[0] != 0 {
		t.Fatalf("inflight = %d", rc.inflight[0])
	}
}

func TestPathPrice(t *testing.T) {
	p := graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []graph.EdgeID{0, 1}}
	price := func(e graph.EdgeID, from graph.NodeID) float64 {
		return float64(e) + 1 // edge 0 → 1, edge 1 → 2
	}
	got := PathPrice(p, 0.1, price)
	want := 1.1 * 3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("path price = %v, want %v", got, want)
	}
}
