package graph

import (
	"math"
	"testing"
)

// line builds a path graph 0-1-2-...-(n-1) with unit capacities.
func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i < n-1; i++ {
		if _, err := g.AddEdge(NodeID(i), NodeID(i+1), 10, 10); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestRemoveEdge(t *testing.T) {
	g := lineGraph(t, 4) // 0-1-2-3, edges 0,1,2
	if _, err := g.AddEdge(0, 3, 5, 5); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 || g.NumLiveEdges() != 4 {
		t.Fatalf("NumEdges=%d NumLiveEdges=%d, want 4/4", g.NumEdges(), g.NumLiveEdges())
	}
	if err := g.RemoveEdge(1); err != nil { // cut 1-2
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges=%d after removal, want 4 (IDs are never reused)", g.NumEdges())
	}
	if g.NumLiveEdges() != 3 {
		t.Fatalf("NumLiveEdges=%d, want 3", g.NumLiveEdges())
	}
	if !g.EdgeRemoved(1) || g.EdgeRemoved(0) {
		t.Fatalf("EdgeRemoved wrong: e1=%v e0=%v", g.EdgeRemoved(1), g.EdgeRemoved(0))
	}
	if g.HasEdgeBetween(1, 2) {
		t.Fatal("adjacency still reports removed edge")
	}
	// The tombstone still resolves endpoints for in-flight bookkeeping.
	if e := g.Edge(1); e.U != 1 || e.V != 2 {
		t.Fatalf("tombstone endpoints = %d-%d, want 1-2", e.U, e.V)
	}
	// Routing detours around the removed edge via 0-3.
	p, ok := NewPathFinder(g).ShortestPath(1, 2, UnitWeight)
	if !ok {
		t.Fatal("no path after removal; expected detour 1-0-3-2")
	}
	for _, eid := range p.Edges {
		if eid == 1 {
			t.Fatal("path uses removed edge")
		}
	}
	if p.Len() != 3 {
		t.Fatalf("detour length = %d, want 3", p.Len())
	}
	// Double removal and out-of-range removal are errors.
	if err := g.RemoveEdge(1); err == nil {
		t.Fatal("double removal succeeded")
	}
	if err := g.RemoveEdge(99); err == nil {
		t.Fatal("out-of-range removal succeeded")
	}
}

func TestPathValidRejectsRemovedEdge(t *testing.T) {
	g := lineGraph(t, 3)
	p, ok := NewPathFinder(g).ShortestPath(0, 2, UnitWeight)
	if !ok || !p.Valid(g) {
		t.Fatal("setup: expected valid path 0-1-2")
	}
	if err := g.RemoveEdge(p.Edges[0]); err != nil {
		t.Fatal(err)
	}
	if p.Valid(g) {
		t.Fatal("path through removed edge still validates")
	}
}

func TestEdgesSkipsRemoved(t *testing.T) {
	g := lineGraph(t, 4)
	if err := g.RemoveEdge(0); err != nil {
		t.Fatal(err)
	}
	if g.NumLiveEdges() != 2 || !g.EdgeRemoved(0) || g.EdgeRemoved(1) {
		t.Fatalf("%d live edges after removing edge 0, want 2", g.NumLiveEdges())
	}
	c := g.Clone()
	if c.NumLiveEdges() != 2 || !c.EdgeRemoved(0) {
		t.Fatal("Clone dropped removal state")
	}
}

// TestPathFinderGrowsWithGraph is the dynamic-arrival regression: a finder
// built before nodes join must serve queries touching the new nodes.
func TestPathFinderGrowsWithGraph(t *testing.T) {
	g := lineGraph(t, 3)
	pf := NewPathFinder(g)
	if _, ok := pf.ShortestPath(0, 2, UnitWeight); !ok {
		t.Fatal("setup query failed")
	}
	// A burst of arrivals, each chained to the previous frontier node.
	last := NodeID(2)
	for i := 0; i < 50; i++ {
		v := g.AddNode()
		if _, err := g.AddEdge(last, v, 7, 7); err != nil {
			t.Fatal(err)
		}
		last = v
	}
	p, ok := pf.ShortestPath(0, last, UnitWeight)
	if !ok {
		t.Fatal("no path to joined node")
	}
	if p.Len() != 52 {
		t.Fatalf("path length = %d, want 52", p.Len())
	}
	if w, ok := pf.widestPath(0, last, false); !ok || w.Bottleneck(g) != 7 {
		t.Fatalf("widest path to joined node: ok=%v bottleneck=%v", ok, w.Bottleneck(g))
	}
	if ks := pf.KShortestPaths(0, last, 2, UnitWeight); len(ks) != 1 {
		t.Fatalf("KSP over grown graph = %d paths, want 1", len(ks))
	}
}

// TestPathFinderGrowthPreservesQueryState pins the copy-grow behavior: growth
// must not reset the stamp (which would alias a pre-growth query's marks)
// and must keep previously banned nodes banned.
func TestPathFinderGrowthPreservesQueryState(t *testing.T) {
	g := lineGraph(t, 4)
	pf := NewPathFinder(g)
	for i := 0; i < 5; i++ { // advance the stamp a few queries
		pf.ShortestPath(0, 3, UnitWeight)
	}
	v := g.AddNode()
	if _, err := g.AddEdge(3, v, 1, 1); err != nil {
		t.Fatal(err)
	}
	p, ok := pf.ShortestPath(0, v, UnitWeight)
	if !ok || p.Len() != 4 {
		t.Fatalf("post-growth query: ok=%v len=%d, want 4", ok, p.Len())
	}
	// Weight function that consults capacity still sees the new edge.
	if _, ok := pf.ShortestPath(0, v, minCapUnitWeight(0.5)); !ok {
		t.Fatal("capacity-filtered query lost the new arc")
	}
	if _, ok := pf.ShortestPath(v, 0, func(e Edge, from NodeID) float64 {
		if e.Capacity(from) <= 0 {
			return math.Inf(1)
		}
		return 1
	}); !ok {
		t.Fatal("reverse query from joined node failed")
	}
}
