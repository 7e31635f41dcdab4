package graph

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/splicer-pcn/splicer/internal/rng"
)

// line builds a path graph 0-1-2-...-(n-1) with uniform capacity c.
func line(n int, c float64) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		if _, err := g.AddEdge(NodeID(i), NodeID(i+1), c, c); err != nil {
			panic(err)
		}
	}
	return g
}

func mustEdge(t *testing.T, g *Graph, u, v NodeID, cf, cr float64) EdgeID {
	t.Helper()
	id, err := g.AddEdge(u, v, cf, cr)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
	return id
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(1, 1, 1, 1); err == nil {
		t.Fatal("expected error for self-loop")
	}
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 5, 1, 1); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
	if _, err := g.AddEdge(-1, 2, 1, 1); err == nil {
		t.Fatal("expected error for negative endpoint")
	}
}

func TestEdgeAccessors(t *testing.T) {
	g := New(2)
	id := mustEdge(t, g, 0, 1, 5, 7)
	e := g.Edge(id)
	if e.Capacity(0) != 5 || e.Capacity(1) != 7 {
		t.Fatalf("capacities: fwd=%v rev=%v", e.Capacity(0), e.Capacity(1))
	}
	if e.Other(0) != 1 || e.Other(1) != 0 {
		t.Fatal("Other endpoints wrong")
	}
}

func TestEdgeCapacityPanicsForNonEndpoint(t *testing.T) {
	g := New(3)
	id := mustEdge(t, g, 0, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Edge(id).Capacity(2)
}

func TestBFSHops(t *testing.T) {
	g := line(5, 1)
	d := g.BFSHops(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestBFSHopsUnreachable(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1, 1, 1)
	d := g.BFSHops(0)
	if d[2] != -1 {
		t.Fatalf("dist to isolated node = %d, want -1", d[2])
	}
	if g.Connected() {
		t.Fatal("graph with isolated node reported connected")
	}
}

func TestConnectedTrivial(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("empty/singleton graphs should be connected")
	}
}

func TestAllPairsHopsSymmetric(t *testing.T) {
	g := line(6, 1)
	m := make([][]int, g.NumNodes())
	for i := range m {
		m[i] = g.BFSHops(NodeID(i))
	}
	for i := range m {
		for j := range m[i] {
			if m[i][j] != m[j][i] {
				t.Fatalf("asymmetric hops: m[%d][%d]=%d m[%d][%d]=%d", i, j, m[i][j], j, i, m[j][i])
			}
		}
	}
	if m[0][5] != 5 {
		t.Fatalf("m[0][5] = %d, want 5", m[0][5])
	}
}

func TestShortestPathPrefersFewerHops(t *testing.T) {
	// 0-1-3 (2 hops) vs 0-2-4-3 (3 hops)
	g := New(5)
	mustEdge(t, g, 0, 1, 1, 1)
	mustEdge(t, g, 1, 3, 1, 1)
	mustEdge(t, g, 0, 2, 1, 1)
	mustEdge(t, g, 2, 4, 1, 1)
	mustEdge(t, g, 4, 3, 1, 1)
	p, ok := NewPathFinder(g).ShortestPath(0, 3, UnitWeight)
	if !ok || p.Len() != 2 {
		t.Fatalf("path = %+v ok=%v, want 2 hops", p, ok)
	}
	if !p.Valid(g) {
		t.Fatal("path not valid")
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1, 1, 1)
	mustEdge(t, g, 2, 3, 1, 1)
	if _, ok := NewPathFinder(g).ShortestPath(0, 3, UnitWeight); ok {
		t.Fatal("found path across disconnected components")
	}
}

func TestShortestPathRespectsWeights(t *testing.T) {
	// Direct edge 0-1 is expensive, detour 0-2-1 cheap.
	g := New(3)
	mustEdge(t, g, 0, 1, 1, 1)
	mustEdge(t, g, 0, 2, 1, 1)
	mustEdge(t, g, 2, 1, 1, 1)
	w := func(e Edge, from NodeID) float64 {
		if e.U == 0 && e.V == 1 {
			return 10
		}
		return 1
	}
	p, ok := NewPathFinder(g).ShortestPath(0, 1, w)
	if !ok || p.Len() != 2 {
		t.Fatalf("expected the 2-hop detour, got %+v", p)
	}
}

func TestShortestPathToSelf(t *testing.T) {
	g := line(3, 1)
	p, ok := NewPathFinder(g).ShortestPath(1, 1, UnitWeight)
	if !ok || p.Len() != 0 || len(p.Nodes) != 1 {
		t.Fatalf("self path = %+v ok=%v", p, ok)
	}
}

// minCapUnitWeight weights arcs 1 but excludes arcs whose directional
// capacity is below minCap.
func minCapUnitWeight(minCap float64) WeightFunc {
	return func(e Edge, from NodeID) float64 {
		if e.Capacity(from) < minCap {
			return math.Inf(1)
		}
		return 1
	}
}

func TestCapacityFilteredUnitWeight(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1, 0.5, 0.5)
	mustEdge(t, g, 0, 2, 5, 5)
	mustEdge(t, g, 2, 1, 5, 5)
	p, ok := NewPathFinder(g).ShortestPath(0, 1, minCapUnitWeight(1))
	if !ok || p.Len() != 2 {
		t.Fatalf("expected filtered detour, got %+v ok=%v", p, ok)
	}
}

func TestWidestPathPicksHighCapacity(t *testing.T) {
	// Narrow direct edge vs wide detour.
	g := New(3)
	mustEdge(t, g, 0, 1, 2, 2)
	mustEdge(t, g, 0, 2, 100, 100)
	mustEdge(t, g, 2, 1, 50, 50)
	p, ok := NewPathFinder(g).widestPath(0, 1, false)
	if !ok {
		t.Fatal("no widest path")
	}
	if got := p.Bottleneck(g); got != 50 {
		t.Fatalf("bottleneck = %v, want 50 (via detour)", got)
	}
}

func TestWidestPathTieBreaksOnHops(t *testing.T) {
	// Two paths with the same bottleneck 10: 0-1 direct and 0-2-1.
	g := New(3)
	mustEdge(t, g, 0, 1, 10, 10)
	mustEdge(t, g, 0, 2, 10, 10)
	mustEdge(t, g, 2, 1, 10, 10)
	p, ok := NewPathFinder(g).widestPath(0, 1, false)
	if !ok || p.Len() != 1 {
		t.Fatalf("expected 1-hop path, got %+v", p)
	}
}

func TestWidestPathDirectional(t *testing.T) {
	// The only route 0→1 has zero capacity in that direction.
	g := New(2)
	mustEdge(t, g, 0, 1, 0, 10)
	if _, ok := NewPathFinder(g).widestPath(0, 1, false); ok {
		t.Fatal("found path through zero-capacity direction")
	}
	if p, ok := NewPathFinder(g).widestPath(1, 0, false); !ok || p.Bottleneck(g) != 10 {
		t.Fatal("reverse direction should be routable at width 10")
	}
}

func TestKShortestPathsOrderAndUniqueness(t *testing.T) {
	// Classic diamond: several routes 0→3.
	g := New(4)
	mustEdge(t, g, 0, 1, 1, 1)
	mustEdge(t, g, 1, 3, 1, 1)
	mustEdge(t, g, 0, 2, 1, 1)
	mustEdge(t, g, 2, 3, 1, 1)
	mustEdge(t, g, 1, 2, 1, 1)
	paths := NewPathFinder(g).KShortestPaths(0, 3, 10, UnitWeight)
	if len(paths) < 3 {
		t.Fatalf("found %d paths, want >= 3", len(paths))
	}
	prev := -1.0
	seen := map[string]bool{}
	for _, p := range paths {
		if !p.Valid(g) {
			t.Fatalf("invalid path %+v", p)
		}
		cost := float64(p.Len())
		if cost < prev {
			t.Fatalf("paths out of order: %v after %v", cost, prev)
		}
		prev = cost
		k := pathKey(p)
		if seen[k] {
			t.Fatalf("duplicate path %+v", p)
		}
		seen[k] = true
		// Looplessness.
		nodes := map[NodeID]bool{}
		for _, n := range p.Nodes {
			if nodes[n] {
				t.Fatalf("path revisits node: %+v", p)
			}
			nodes[n] = true
		}
	}
}

func TestKShortestPathsKOne(t *testing.T) {
	g := line(4, 1)
	paths := NewPathFinder(g).KShortestPaths(0, 3, 1, UnitWeight)
	if len(paths) != 1 || paths[0].Len() != 3 {
		t.Fatalf("paths = %+v", paths)
	}
}

func TestKShortestPathsNoneWhenDisconnected(t *testing.T) {
	g := New(2)
	if paths := NewPathFinder(g).KShortestPaths(0, 1, 3, UnitWeight); paths != nil {
		t.Fatalf("expected nil, got %+v", paths)
	}
}

func TestEdgeDisjointShortestPaths(t *testing.T) {
	// Two fully disjoint routes 0→3 plus a shared shortcut.
	g := New(6)
	mustEdge(t, g, 0, 1, 1, 1)
	mustEdge(t, g, 1, 3, 1, 1)
	mustEdge(t, g, 0, 2, 1, 1)
	mustEdge(t, g, 2, 3, 1, 1)
	mustEdge(t, g, 0, 4, 1, 1)
	mustEdge(t, g, 4, 5, 1, 1)
	mustEdge(t, g, 5, 3, 1, 1)
	paths := NewPathFinder(g).EdgeDisjointShortestPaths(0, 3, 5)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	used := map[EdgeID]bool{}
	for _, p := range paths {
		for _, e := range p.Edges {
			if used[e] {
				t.Fatalf("edge %d reused", e)
			}
			used[e] = true
		}
	}
	// Greedy order: the two 2-hop paths come before the 3-hop one.
	if paths[0].Len() != 2 || paths[1].Len() != 2 || paths[2].Len() != 3 {
		t.Fatalf("unexpected path lengths: %d %d %d", paths[0].Len(), paths[1].Len(), paths[2].Len())
	}
}

func TestEdgeDisjointWidestPaths(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1, 100, 100)
	mustEdge(t, g, 1, 3, 100, 100)
	mustEdge(t, g, 0, 2, 10, 10)
	mustEdge(t, g, 2, 3, 10, 10)
	paths := NewPathFinder(g).EdgeDisjointWidestPaths(0, 3, 5)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	if paths[0].Bottleneck(g) != 100 || paths[1].Bottleneck(g) != 10 {
		t.Fatalf("bottlenecks: %v, %v", paths[0].Bottleneck(g), paths[1].Bottleneck(g))
	}
}

func TestHighestFundPaths(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1, 5, 5)
	mustEdge(t, g, 1, 3, 5, 5)
	mustEdge(t, g, 0, 2, 50, 50)
	mustEdge(t, g, 2, 3, 50, 50)
	paths := NewPathFinder(g).HighestFundPaths(0, 3, 1)
	if len(paths) != 1 {
		t.Fatalf("got %d paths", len(paths))
	}
	if paths[0].Bottleneck(g) != 50 {
		t.Fatalf("heuristic picked bottleneck %v, want 50", paths[0].Bottleneck(g))
	}
}

func TestMaxFlowSimple(t *testing.T) {
	// Two disjoint unit paths → max flow 2.
	g := New(4)
	mustEdge(t, g, 0, 1, 1, 0)
	mustEdge(t, g, 1, 3, 1, 0)
	mustEdge(t, g, 0, 2, 1, 0)
	mustEdge(t, g, 2, 3, 1, 0)
	total, paths := g.MaxFlowWith(new(MaxFlowScratch), 0, 3, math.Inf(1))
	if math.Abs(total-2) > 1e-9 {
		t.Fatalf("max flow = %v, want 2", total)
	}
	sum := 0.0
	for _, fp := range paths {
		if !fp.Path.Valid(g) {
			t.Fatalf("invalid flow path %+v", fp.Path)
		}
		sum += fp.Amount
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Fatalf("decomposition sums to %v, want %v", sum, total)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// 0 -10→ 1 -3→ 2: flow limited to 3.
	g := New(3)
	mustEdge(t, g, 0, 1, 10, 0)
	mustEdge(t, g, 1, 2, 3, 0)
	total, _ := g.MaxFlowWith(new(MaxFlowScratch), 0, 2, math.Inf(1))
	if math.Abs(total-3) > 1e-9 {
		t.Fatalf("max flow = %v, want 3", total)
	}
}

func TestMaxFlowRespectsLimit(t *testing.T) {
	g := New(2)
	mustEdge(t, g, 0, 1, 100, 0)
	total, paths := g.MaxFlowWith(new(MaxFlowScratch), 0, 1, 7)
	if math.Abs(total-7) > 1e-9 {
		t.Fatalf("limited flow = %v, want 7", total)
	}
	if len(paths) != 1 || math.Abs(paths[0].Amount-7) > 1e-9 {
		t.Fatalf("paths = %+v", paths)
	}
}

func TestMaxFlowZeroWhenDisconnected(t *testing.T) {
	g := New(2)
	total, paths := g.MaxFlowWith(new(MaxFlowScratch), 0, 1, math.Inf(1))
	if total != 0 || paths != nil {
		t.Fatalf("total=%v paths=%v", total, paths)
	}
}

func TestMaxFlowSelf(t *testing.T) {
	g := line(2, 1)
	if total, _ := g.MaxFlowWith(new(MaxFlowScratch), 0, 0, math.Inf(1)); total != 0 {
		t.Fatalf("self flow = %v", total)
	}
}

// randomConnectedGraph builds a connected random graph for property tests.
func randomConnectedGraph(src *rng.Source, n int, extraEdges int, maxCap float64) *Graph {
	g := New(n)
	perm := src.Perm(n)
	for i := 1; i < n; i++ {
		u, v := NodeID(perm[i-1]), NodeID(perm[i])
		c1 := src.Float64()*maxCap + 1
		c2 := src.Float64()*maxCap + 1
		if _, err := g.AddEdge(u, v, c1, c2); err != nil {
			panic(err)
		}
	}
	for i := 0; i < extraEdges; i++ {
		u, v := NodeID(src.IntN(n)), NodeID(src.IntN(n))
		if u == v {
			continue
		}
		c1 := src.Float64()*maxCap + 1
		c2 := src.Float64()*maxCap + 1
		if _, err := g.AddEdge(u, v, c1, c2); err != nil {
			panic(err)
		}
	}
	return g
}

func TestPropertyWidestPathIsWidest(t *testing.T) {
	// The widest path's bottleneck must be >= the bottleneck of every
	// shortest path and every KSP path found.
	f := func(seed uint64) bool {
		src := rng.New(seed)
		g := randomConnectedGraph(src, 12, 15, 100)
		s, d := NodeID(0), NodeID(11)
		wp, ok := NewPathFinder(g).widestPath(s, d, false)
		if !ok {
			return false // graph is connected, must exist
		}
		wb := wp.Bottleneck(g)
		for _, p := range NewPathFinder(g).KShortestPaths(s, d, 5, UnitWeight) {
			if p.Bottleneck(g) > wb+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMaxFlowAtLeastWidest(t *testing.T) {
	// Max flow >= widest path bottleneck (a single path is a valid flow).
	f := func(seed uint64) bool {
		src := rng.New(seed)
		g := randomConnectedGraph(src, 10, 12, 50)
		s, d := NodeID(0), NodeID(9)
		wp, ok := NewPathFinder(g).widestPath(s, d, false)
		if !ok {
			return false
		}
		total, _ := g.MaxFlowWith(new(MaxFlowScratch), s, d, math.Inf(1))
		return total >= wp.Bottleneck(g)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

func TestPropertyDecompositionConserves(t *testing.T) {
	// One scratch serves the whole sequence: graphs of differing size, some
	// edges tombstoned, the flow sometimes capped. Whatever the scratch held
	// from the last graph, MaxFlowWith must return what a fresh MaxFlow does.
	var scratch MaxFlowScratch
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 4 + src.IntN(20)
		g := randomConnectedGraph(src, n, n+src.IntN(n), 30)
		for i := src.IntN(4); i > 0; i-- {
			if id := EdgeID(src.IntN(g.NumEdges())); !g.EdgeRemoved(id) {
				if err := g.RemoveEdge(id); err != nil {
					return false
				}
			}
		}
		s, d := NodeID(0), NodeID(n-1)
		limit := math.Inf(1)
		if src.IntN(3) == 0 {
			limit = src.Float64() * 40
		}
		total, paths := g.MaxFlowWith(new(MaxFlowScratch), s, d, limit)
		// Leftovers of a finished run are mostly zeros; make them hostile.
		fill(scratch.flow, 1e9)
		fill(scratch.seen, true)
		fill(scratch.level, 1)
		fill(scratch.prevNode, 0)
		for _, a := range [][]int32{scratch.counts, scratch.start, scratch.iter, scratch.prevArc} {
			fill(a, 7)
		}
		if reTotal, rePaths := g.MaxFlowWith(&scratch, s, d, limit); reTotal != total || !reflect.DeepEqual(rePaths, paths) {
			t.Logf("seed %d: reused scratch gave %v %v, fresh gave %v %v", seed, reTotal, rePaths, total, paths)
			return false
		}
		sum := 0.0
		for _, fp := range paths {
			if len(fp.Path.Nodes) == 0 || fp.Path.Nodes[0] != s || fp.Path.Nodes[len(fp.Path.Nodes)-1] != d {
				return false
			}
			if !fp.Path.Valid(g) {
				return false
			}
			sum += fp.Amount
		}
		return math.Abs(sum-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := line(3, 5)
	c := g.Clone()
	c.SetCapacity(0, 99, 99)
	if g.Edge(0).CapFwd == 99 {
		t.Fatal("clone shares edge storage with original")
	}
	if _, err := c.AddEdge(0, 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == c.NumEdges() {
		t.Fatal("clone shares adjacency with original")
	}
}

func TestPathEqual(t *testing.T) {
	p := Path{Nodes: []NodeID{0, 1}, Edges: []EdgeID{0}}
	q := Path{Nodes: []NodeID{0, 1}, Edges: []EdgeID{0}}
	r := Path{Nodes: []NodeID{0, 2}, Edges: []EdgeID{1}}
	if !p.Equal(q) || p.Equal(r) {
		t.Fatal("Path.Equal misbehaves")
	}
}

func TestHasEdgeBetween(t *testing.T) {
	g := line(3, 1)
	if !g.HasEdgeBetween(0, 1) || g.HasEdgeBetween(0, 2) {
		t.Fatal("HasEdgeBetween wrong")
	}
}

// pathKey encodes a path's node sequence, 4 little-endian bytes per node.
func pathKey(p Path) string {
	b := make([]byte, 0, len(p.Nodes)*4)
	for _, n := range p.Nodes {
		b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return string(b)
}
