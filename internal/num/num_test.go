package num

import (
	"math"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// pathThrough builds the unique path along consecutive nodes in g.
func pathThrough(t *testing.T, g *graph.Graph, nodes ...graph.NodeID) graph.Path {
	t.Helper()
	p := graph.Path{Nodes: nodes}
	for i := 0; i+1 < len(nodes); i++ {
		u, v := nodes[i], nodes[i+1]
		found := false
		for id := 0; id < g.NumEdges() && !found; id++ {
			e := g.Edge(graph.EdgeID(id))
			if found = e.U == u && e.V == v || e.U == v && e.V == u; found {
				p.Edges = append(p.Edges, e.ID)
			}
		}
		if !found {
			t.Fatalf("no edge %d-%d", u, v)
		}
	}
	return p
}

func line(t *testing.T, n int, c float64) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		if _, err := g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), c, c); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestValidation(t *testing.T) {
	g := line(t, 2, 10)
	path := pathThrough(t, g, 0, 1)
	ok := Problem{Graph: g, Delta: 1, Epsilon: 1, Commodities: []Commodity{{Source: 0, Dest: 1, Paths: []graph.Path{path}}}}
	cases := []Problem{
		{Graph: nil, Delta: 1, Epsilon: 1, Commodities: ok.Commodities},
		{Graph: g, Delta: 0, Epsilon: 1, Commodities: ok.Commodities},
		{Graph: g, Delta: 1, Epsilon: -1, Commodities: ok.Commodities},
		{Graph: g, Delta: 1, Epsilon: 1},
		{Graph: g, Delta: 1, Epsilon: 1, Commodities: []Commodity{{Source: 0, Dest: 1}}},
	}
	for i, p := range cases {
		if _, err := Solve(p, Options{Iterations: 10}); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if _, err := Solve(ok, Options{Iterations: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestBalanceConstraintThrottlesOneWayFlow(t *testing.T) {
	// One-directional demand over a single channel: the balance constraint
	// |r − 0| ≤ ε caps the rate at ε no matter how much capacity exists.
	g := line(t, 2, 1000)
	path := pathThrough(t, g, 0, 1)
	const eps = 2.0
	sol, err := Solve(Problem{
		Graph: g, Delta: 1, Epsilon: eps,
		Commodities: []Commodity{{Source: 0, Dest: 1, Paths: []graph.Path{path}}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := sol.TotalRate(0)
	if r > eps*1.3 {
		t.Fatalf("one-way rate %v far exceeds balance slack %v", r, eps)
	}
	if r < eps*0.4 {
		t.Fatalf("one-way rate %v collapsed below the slack %v", r, eps)
	}
}

func TestCounterflowUnlocksThroughput(t *testing.T) {
	// The deadlock-freedom core claim: adding reverse demand lets BOTH
	// directions run far above ε, because balanced flows replenish each
	// other (§II-B's fix).
	g := line(t, 2, 1000)
	fwd := pathThrough(t, g, 0, 1)
	rev := pathThrough(t, g, 1, 0)
	const eps = 2.0
	oneWay, err := Solve(Problem{
		Graph: g, Delta: 1, Epsilon: eps,
		Commodities: []Commodity{{Source: 0, Dest: 1, Paths: []graph.Path{fwd}}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	twoWay, err := Solve(Problem{
		Graph: g, Delta: 1, Epsilon: eps,
		Commodities: []Commodity{
			{Source: 0, Dest: 1, Paths: []graph.Path{fwd}},
			{Source: 1, Dest: 0, Paths: []graph.Path{rev}},
		},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if twoWay.TotalRate(0) < 3*oneWay.TotalRate(0) {
		t.Fatalf("counterflow did not unlock throughput: one-way %v, two-way fwd %v",
			oneWay.TotalRate(0), twoWay.TotalRate(0))
	}
}

func TestCapacityBindsBalancedFlow(t *testing.T) {
	// Balanced bidirectional demand over a small channel: capacity (eq. 18)
	// binds: r01 + r10 ≤ (c_fwd + c_rev)/Δ = 20.
	g := line(t, 2, 10)
	fwd := pathThrough(t, g, 0, 1)
	rev := pathThrough(t, g, 1, 0)
	sol, err := Solve(Problem{
		Graph: g, Delta: 1, Epsilon: 100,
		Commodities: []Commodity{
			{Source: 0, Dest: 1, Paths: []graph.Path{fwd}},
			{Source: 1, Dest: 0, Paths: []graph.Path{rev}},
		},
	}, Options{Iterations: 8000})
	if err != nil {
		t.Fatal(err)
	}
	sum := sol.TotalRate(0) + sol.TotalRate(1)
	if sum > 20*1.15 {
		t.Fatalf("capacity violated: total rate %v > 20", sum)
	}
	if sum < 20*0.6 {
		t.Fatalf("capacity underused: total rate %v", sum)
	}
	if sol.MaxCapacityViolation > 3 {
		t.Fatalf("residual capacity violation %v", sol.MaxCapacityViolation)
	}
}

func TestDemandConstraintBinds(t *testing.T) {
	g := line(t, 2, 1000)
	fwd := pathThrough(t, g, 0, 1)
	rev := pathThrough(t, g, 1, 0)
	sol, err := Solve(Problem{
		Graph: g, Delta: 2, Epsilon: 1000,
		Commodities: []Commodity{
			{Source: 0, Dest: 1, Paths: []graph.Path{fwd}, Demand: 10}, // Σr ≤ 5
			{Source: 1, Dest: 0, Paths: []graph.Path{rev}},
		},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := sol.TotalRate(0); r > 5+1e-6 {
		t.Fatalf("demand constraint violated: %v > 5", r)
	}
}

func TestMultiPathSplitsAcrossBottlenecks(t *testing.T) {
	// Diamond: 0-1-3 (narrow) and 0-2-3 (wide), balanced counterflow via a
	// mirror commodity. The wide path must carry more rate.
	g := graph.New(4)
	mk := func(u, v graph.NodeID, c float64) {
		if _, err := g.AddEdge(u, v, c, c); err != nil {
			t.Fatal(err)
		}
	}
	mk(0, 1, 5)
	mk(1, 3, 5)
	mk(0, 2, 100)
	mk(2, 3, 100)
	up := []graph.Path{pathThrough(t, g, 0, 1, 3), pathThrough(t, g, 0, 2, 3)}
	down := []graph.Path{pathThrough(t, g, 3, 1, 0), pathThrough(t, g, 3, 2, 0)}
	sol, err := Solve(Problem{
		Graph: g, Delta: 1, Epsilon: 50,
		Commodities: []Commodity{
			{Source: 0, Dest: 3, Paths: up},
			{Source: 3, Dest: 0, Paths: down},
		},
	}, Options{Iterations: 8000})
	if err != nil {
		t.Fatal(err)
	}
	narrow, wide := sol.Rates[0][0], sol.Rates[0][1]
	if wide <= narrow {
		t.Fatalf("wide path rate %v not above narrow %v", wide, narrow)
	}
}

func TestUtilityFinitePositiveRates(t *testing.T) {
	g := line(t, 3, 50)
	p := pathThrough(t, g, 0, 1, 2)
	rev := pathThrough(t, g, 2, 1, 0)
	sol, err := Solve(Problem{
		Graph: g, Delta: 1, Epsilon: 5,
		Commodities: []Commodity{
			{Source: 0, Dest: 2, Paths: []graph.Path{p}},
			{Source: 2, Dest: 0, Paths: []graph.Path{rev}},
		},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(sol.Utility, -1) || math.IsNaN(sol.Utility) {
		t.Fatalf("utility = %v", sol.Utility)
	}
}
