package reliability

import (
	"math"
	"reflect"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// diamond builds 0-1-3 and 0-2-3: two equal-hop routes, so a penalty on one
// deterministically steers the shortest path through the other.
func diamond(t *testing.T) (*graph.Graph, [4]graph.EdgeID) {
	t.Helper()
	g := graph.New(4)
	var ids [4]graph.EdgeID
	for i, pair := range [][2]graph.NodeID{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		id, err := g.AddEdge(pair[0], pair[1], 100, 100)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return g, ids
}

func TestConfigValidate(t *testing.T) {
	var zero Config
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero (unarmed) config invalid: %v", err)
	}
	if zero.Armed() {
		t.Fatal("zero config reports armed")
	}
	if !NewConfig().Armed() {
		t.Fatal("NewConfig is not armed")
	}
	bad := NewConfig()
	bad.Backoff = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative backoff validated")
	}
	// Unarmed configs skip knob validation entirely: MaxAttempts <= 1 means
	// the store is never built, so garbage knobs are inert.
	bad.MaxAttempts = 1
	if err := bad.Validate(); err != nil {
		t.Fatalf("unarmed config with junk knobs invalid: %v", err)
	}
}

// penalty is edge e's decayed penalty at now, read back from the weight
// the store's overlay gives it (1 + PenaltyWeight·penalty); +Inf while the
// edge is excluded.
func penalty(st *Store, e graph.EdgeID, now float64) float64 {
	return (st.WeightAvoiding(now, -1)(graph.Edge{ID: e}, 0) - 1) / st.cfg.PenaltyWeight
}

func TestPenaltyDecay(t *testing.T) {
	st := NewStore(NewConfig()) // half-life 2s, exclusion 0.5s
	st.ObserveFailure(0, 0)
	if p := penalty(st, 0, 2); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("penalty one half-life later = %v, want 0.5", p)
	}
	if p := penalty(st, 0, 4); math.Abs(p-0.25) > 1e-12 {
		t.Fatalf("penalty two half-lives later = %v, want 0.25", p)
	}
	if p := penalty(st, 99, 4); p != 0 {
		t.Fatalf("never-observed edge penalty = %v, want 0", p)
	}
}

func TestExclusionWindow(t *testing.T) {
	st := NewStore(NewConfig()) // exclusion 0.5s
	st.ObserveFailure(3, 1)
	// Inside the window the overlay prices the edge unroutable.
	w := st.WeightAvoiding(1.4, -1)
	if c := w(graph.Edge{ID: 3}, 0); !math.IsInf(c, 1) {
		t.Fatalf("excluded edge weight = %v, want +Inf", c)
	}
	if st.Stats().ExcludedHits == 0 {
		t.Fatal("exclusion hit not counted")
	}
	// After the window it is penalized, not excluded.
	if c := st.WeightAvoiding(1.6, -1)(graph.Edge{ID: 3}, 0); math.IsInf(c, 1) || c <= 1 {
		t.Fatalf("post-window weight = %v, want finite > 1", c)
	}
}

func TestSuccessForgives(t *testing.T) {
	st := NewStore(NewConfig())
	st.ObserveFailure(5, 0)
	st.ObserveSuccess(5, 0)
	if p := penalty(st, 5, 0); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("penalty after failure+success = %v, want 0.5 (an excluded edge reads +Inf)", p)
	}
	want := Stats{Failures: 1, Successes: 1}
	if got := st.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestEmptyStoreWeightIdentity pins the golden-byte contract: a store that
// has never observed anything hands back graph.UnitWeight ITSELF, so every
// path query through it is the same call the retry-less simulator makes.
func TestEmptyStoreWeightIdentity(t *testing.T) {
	st := NewStore(NewConfig())
	w := st.WeightAvoiding(3, -1)
	if reflect.ValueOf(w).Pointer() != reflect.ValueOf(graph.WeightFunc(graph.UnitWeight)).Pointer() {
		t.Fatal("empty store's Weight is not graph.UnitWeight itself")
	}
	g, _ := diamond(t)
	pf := graph.NewPathFinder(g)
	got, ok1 := pf.ShortestPath(0, 3, st.WeightAvoiding(0, -1))
	want, ok2 := pf.UnitShortestPath(0, 3)
	if ok1 != ok2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("empty-store query diverged: %+v vs %+v", got, want)
	}
}

func TestPenaltySteersPath(t *testing.T) {
	g, ids := diamond(t)
	pf := graph.NewPathFinder(g)
	st := NewStore(NewConfig())
	// Fail the 0-1 edge and query after the exclusion window: the penalty
	// (1 + 4·p > 1) must push the route through 0-2-3.
	st.ObserveFailure(ids[0], 0)
	p, ok := pf.ShortestPath(0, 3, st.WeightAvoiding(1, -1))
	if !ok {
		t.Fatal("0->3 unreachable")
	}
	if want := []graph.NodeID{0, 2, 3}; !reflect.DeepEqual(p.Nodes, want) {
		t.Fatalf("penalized route = %v, want %v", p.Nodes, want)
	}
}

func TestWeightAvoiding(t *testing.T) {
	g, ids := diamond(t)
	pf := graph.NewPathFinder(g)
	st := NewStore(NewConfig())
	// Even an empty store must honor the avoided hop: that is the retry
	// re-plan's "not the edge that just failed" guarantee.
	p, ok := pf.ShortestPath(0, 3, st.WeightAvoiding(0, ids[2]))
	if !ok {
		t.Fatal("0->3 unreachable")
	}
	if want := []graph.NodeID{0, 1, 3}; !reflect.DeepEqual(p.Nodes, want) {
		t.Fatalf("avoiding route = %v, want %v", p.Nodes, want)
	}
	if c := st.WeightAvoiding(0, ids[2])(graph.Edge{ID: ids[2]}, 0); !math.IsInf(c, 1) {
		t.Fatalf("avoided edge weight = %v, want +Inf", c)
	}
}

// TestDeterministicFold pins that the store is a pure fold: replaying the
// same observation sequence yields identical penalties and weights.
func TestDeterministicFold(t *testing.T) {
	build := func() *Store {
		st := NewStore(NewConfig())
		for i := 0; i < 200; i++ {
			e := graph.EdgeID(i % 17)
			now := float64(i) * 0.03
			if i%3 == 0 {
				st.ObserveSuccess(e, now)
			} else {
				st.ObserveFailure(e, now)
			}
		}
		return st
	}
	a, b := build(), build()
	for e := graph.EdgeID(0); e < 17; e++ {
		if pa, pb := penalty(a, e, 7), penalty(b, e, 7); pa != pb {
			t.Fatalf("edge %d penalty diverged: %v vs %v", e, pa, pb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}
