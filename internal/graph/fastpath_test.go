package graph

// Equivalence tests for the unit-weight fast paths and the CSR adjacency
// mirror: every specialized query must return bit-identical paths to its
// generic counterpart — not merely equally-short ones. Dijkstra tie-breaking
// is observable through the simulator (different equal-cost paths change
// payment trajectories and therefore figure outputs), so these tests are
// the contract that lets the fast paths replace the generic code in the
// planners.

import (
	"math/rand"
	"testing"
)

// randomTestGraph builds a connected-ish random multigraph.
func randomTestGraph(t *testing.T, seed int64, n, extra int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for v := 1; v < n; v++ {
		u := NodeID(rng.Intn(v))
		if _, err := g.AddEdge(u, NodeID(v), 1+rng.Float64()*99, 1+rng.Float64()*99); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if _, err := g.AddEdge(u, v, 1+rng.Float64()*99, 1+rng.Float64()*99); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func pathsEqual(a, b Path) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

func TestUnitShortestPathMatchesGeneric(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomTestGraph(t, seed, 120, 240)
		pfGeneric := NewPathFinder(g)
		pfUnit := NewPathFinder(g)
		rng := rand.New(rand.NewSource(seed + 1000))
		for q := 0; q < 200; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			want, okW := pfGeneric.ShortestPath(src, dst, UnitWeight)
			got, okG := pfUnit.UnitShortestPath(src, dst)
			if okW != okG {
				t.Fatalf("seed %d %d->%d: ok mismatch generic=%v unit=%v", seed, src, dst, okW, okG)
			}
			if okW && !pathsEqual(want, got) {
				t.Fatalf("seed %d %d->%d:\ngeneric %v\nunit    %v", seed, src, dst, want, got)
			}
		}
	}
}

func TestUnitShortestPathsMultiMatchesSingle(t *testing.T) {
	g := randomTestGraph(t, 7, 150, 300)
	pf := NewPathFinder(g)
	rng := rand.New(rand.NewSource(77))
	for q := 0; q < 100; q++ {
		src := NodeID(rng.Intn(g.NumNodes()))
		dsts := make([]NodeID, 5)
		for i := range dsts {
			dsts[i] = NodeID(rng.Intn(g.NumNodes()))
		}
		dsts[4] = dsts[0] // duplicate targets must both resolve
		multi := pf.UnitShortestPaths(src, dsts)
		for i, d := range dsts {
			want, ok := pf.UnitShortestPath(src, d)
			if !ok {
				if multi[i].Len() != 0 || len(multi[i].Nodes) != 0 {
					t.Fatalf("%d->%d unreachable but multi returned %v", src, d, multi[i])
				}
				continue
			}
			if !pathsEqual(want, multi[i]) {
				t.Fatalf("%d->%d:\nsingle %v\nmulti  %v", src, d, want, multi[i])
			}
		}
	}
}

func TestKShortestPathsUnitMatchesGeneric(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := randomTestGraph(t, seed+20, 80, 160)
		pfGeneric := NewPathFinder(g)
		pfUnit := NewPathFinder(g)
		rng := rand.New(rand.NewSource(seed + 2000))
		for q := 0; q < 40; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			want := pfGeneric.KShortestPaths(src, dst, 4, UnitWeight)
			got := pfUnit.KShortestPathsUnit(src, dst, 4)
			if len(want) != len(got) {
				t.Fatalf("seed %d %d->%d: %d vs %d paths", seed, src, dst, len(want), len(got))
			}
			for i := range want {
				if !pathsEqual(want[i], got[i]) {
					t.Fatalf("seed %d %d->%d path %d:\ngeneric %v\nunit    %v", seed, src, dst, i, want[i], got[i])
				}
			}
		}
	}
}

// TestEdgeDisjointWidestPathsFinderMatchesClone pins the clone-free masked
// EDW against the reference implementation: clone the graph, zero out the
// extracted edges, rerun WidestPath.
func TestEdgeDisjointWidestPathsFinderMatchesClone(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := randomTestGraph(t, seed+40, 100, 250)
		pf := NewPathFinder(g)
		rng := rand.New(rand.NewSource(seed + 3000))
		for q := 0; q < 40; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			got := pf.EdgeDisjointWidestPaths(src, dst, 4)
			// Reference: mask by capacity-zeroing on a clone.
			masked := g.Clone()
			ref := NewPathFinder(masked)
			var want []Path
			for len(want) < 4 {
				p, ok := ref.widestPath(src, dst, false)
				if !ok {
					break
				}
				want = append(want, p)
				for _, eid := range p.Edges {
					masked.SetCapacity(eid, 0, 0)
				}
			}
			if len(want) != len(got) {
				t.Fatalf("seed %d %d->%d: %d vs %d paths", seed, src, dst, len(want), len(got))
			}
			for i := range want {
				if !pathsEqual(want[i], got[i]) {
					t.Fatalf("seed %d %d->%d path %d:\nclone  %v\nfinder %v", seed, src, dst, i, want[i], got[i])
				}
			}
		}
	}
}

// TestCSRInvalidation exercises the adjacency mirror across topology and
// capacity mutations: results must track the live graph, never a stale
// mirror.
func TestCSRInvalidation(t *testing.T) {
	g := New(4)
	e01, _ := g.AddEdge(0, 1, 10, 10)
	_, _ = g.AddEdge(1, 2, 10, 10)
	pf := NewPathFinder(g)
	if p, ok := pf.UnitShortestPath(0, 2); !ok || p.Len() != 2 {
		t.Fatalf("initial path = %v ok=%v", p, ok)
	}
	// Adding a shortcut must invalidate the mirror.
	if _, err := g.AddEdge(0, 2, 5, 5); err != nil {
		t.Fatal(err)
	}
	if p, ok := pf.UnitShortestPath(0, 2); !ok || p.Len() != 1 {
		t.Fatalf("post-AddEdge path = %v ok=%v", p, ok)
	}
	// Removing it must be seen as well.
	if err := g.RemoveEdge(EdgeID(2)); err != nil {
		t.Fatal(err)
	}
	if p, ok := pf.UnitShortestPath(0, 2); !ok || p.Len() != 2 {
		t.Fatalf("post-RemoveEdge path = %v ok=%v", p, ok)
	}
	// Widest must see capacity rewrites (the capacity column has its own
	// invalidation stamp).
	if p, ok := pf.widestPath(0, 2, false); !ok || p.Len() != 2 {
		t.Fatalf("widest = %v ok=%v", p, ok)
	}
	g.SetCapacity(e01, 0, 0) // starve the 0-1 hop
	if _, ok := pf.widestPath(0, 2, false); ok {
		t.Fatal("widest found a path through a zero-capacity channel")
	}
	// A node arrival grows the mirror.
	v := g.AddNode()
	if _, err := g.AddEdge(2, v, 3, 3); err != nil {
		t.Fatal(err)
	}
	if p, ok := pf.UnitShortestPath(1, v); !ok || p.Len() != 2 {
		t.Fatalf("path to new node = %v ok=%v", p, ok)
	}
}
