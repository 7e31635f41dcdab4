package graph

// Regression tests for the serving pool's path-ownership contract: a Path
// returned by any PathFinder (or label) query is owned by the caller — its
// slices must not alias finder scratch that the NEXT query from the same
// finder rewrites, and must survive graph mutation. A worker answers query
// A, starts query B, and only then does A's response get serialized; if
// results aliased scratch, A's payload would silently turn into B's.

import (
	"math/rand"
	"testing"
)

// deepCopyPaths snapshots paths by value so later scratch reuse is visible.
func deepCopyPaths(ps []Path) []Path {
	out := make([]Path, len(ps))
	for i, p := range ps {
		out[i] = Path{
			Nodes: append([]NodeID(nil), p.Nodes...),
			Edges: append([]EdgeID(nil), p.Edges...),
		}
	}
	return out
}

func TestPathFinderResultsDoNotAliasScratch(t *testing.T) {
	g := randomTestGraph(t, 700, 60, 120)
	pf := NewPathFinder(g)
	rng := rand.New(rand.NewSource(7))
	n := g.NumNodes()

	// Every query family the serve layer exposes.
	queries := []func(src, dst NodeID) []Path{
		func(src, dst NodeID) []Path {
			p, ok := pf.ShortestPath(src, dst, UnitWeight)
			if !ok {
				return nil
			}
			return []Path{p}
		},
		func(src, dst NodeID) []Path {
			p, ok := pf.UnitShortestPath(src, dst)
			if !ok {
				return nil
			}
			return []Path{p}
		},
		func(src, dst NodeID) []Path {
			p, ok := pf.widestPath(src, dst, false)
			if !ok {
				return nil
			}
			return []Path{p}
		},
		func(src, dst NodeID) []Path { return pf.KShortestPathsUnit(src, dst, 4) },
		func(src, dst NodeID) []Path { return pf.KShortestPaths(src, dst, 4, UnitWeight) },
		func(src, dst NodeID) []Path { return pf.EdgeDisjointShortestPaths(src, dst, 3) },
		func(src, dst NodeID) []Path { return pf.EdgeDisjointWidestPaths(src, dst, 3) },
		func(src, dst NodeID) []Path { return pf.HighestFundPaths(src, dst, 3) },
		func(src, dst NodeID) []Path { return pf.UnitShortestPaths(src, []NodeID{dst, src, 0}) },
	}

	for qi, query := range queries {
		srcA, dstA := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		srcB, dstB := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))

		resultA := query(srcA, dstA)
		saved := deepCopyPaths(resultA)

		// Interleave: a second query on the same finder, then a mutation —
		// the exact sequence a pooled worker runs between computing a
		// response and writing it out.
		query(srcB, dstB)
		churnStep(rng, g)

		for i := range resultA {
			if !resultA[i].Equal(saved[i]) {
				t.Fatalf("query family %d: result mutated by later query/mutation:\n got %+v\nwant %+v",
					qi, resultA[i], saved[i])
			}
		}
	}
}

// TestLabelResultsDoNotAliasScratch covers the hub-label serving path the
// same way: tree-served answers and Yen continuations seeded from a tree.
func TestLabelResultsDoNotAliasScratch(t *testing.T) {
	g := randomTestGraph(t, 701, 60, 120)
	hl := NewHubLabels(g, nil, []NodeID{5, 11})
	hl.BuildAll()
	v := hl.View()
	pf := NewPathFinder(g)
	rng := rand.New(rand.NewSource(9))

	firsts := v.KShortestPathsUnit(pf, 5, 40, 1)
	if len(firsts) == 0 {
		t.Fatal("hub 5 cannot reach node 40")
	}
	first := firsts[0]
	ksp := v.KShortestPathsUnit(pf, 11, 33, 4)
	savedFirst := deepCopyPaths([]Path{first})[0]
	savedKSP := deepCopyPaths(ksp)

	v.KShortestPathsUnit(pf, 11, 7, 1)
	v.KShortestPathsUnit(pf, 5, 29, 4)
	churnStep(rng, g)

	if !first.Equal(savedFirst) {
		t.Fatalf("label path mutated: got %+v want %+v", first, savedFirst)
	}
	for i := range ksp {
		if !ksp[i].Equal(savedKSP[i]) {
			t.Fatalf("label KSP[%d] mutated: got %+v want %+v", i, ksp[i], savedKSP[i])
		}
	}
}
