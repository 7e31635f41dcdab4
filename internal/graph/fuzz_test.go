// Fuzz targets for the path-computation layer. The byte input decodes into
// a small random multigraph-free graph plus a query; the properties checked
// are the ones every routing policy leans on:
//
//   - returned paths are structurally valid (Path.Valid) and simple (no
//     repeated node);
//   - they actually connect the queried endpoints;
//   - capacity-filtered searches never traverse an arc below the threshold
//     (capacity-respecting);
//   - Yen's k-shortest-paths output is distinct and cost-sorted, with the
//     head equal to the plain shortest path;
//   - the allocation-free PathFinder fast paths agree with the baseline
//     Graph algorithms (cost-level equivalence; tie-breaks may differ only
//     in equal-cost paths).
//
// Seed corpora live in testdata/fuzz; CI runs a short -fuzz smoke over both
// targets.
package graph

import (
	"math"
	"testing"
)

// buildFuzzGraph decodes bytes into a graph: node count from the first
// byte, then (u, v, capFwd, capRev) quadruples. A quadruple with u == v is
// a churn directive instead of an edge: it removes the capFwd-selected live
// edge, so fuzzed inputs cover post-churn graphs (tombstoned edge slots,
// compacted adjacency) and exercise the incremental CSR maintenance, not
// just append-only construction. Returns nil when the input encodes no
// usable graph.
func buildFuzzGraph(data []byte) *Graph {
	if len(data) < 5 {
		return nil
	}
	n := int(data[0]%22) + 3 // 3..24 nodes
	g := New(n)
	rest := data[1:]
	for len(rest) >= 4 {
		b0, b1, b2, b3 := rest[0], rest[1], rest[2], rest[3]
		rest = rest[4:]
		u := NodeID(int(b0) % n)
		v := NodeID(int(b1) % n)
		if u == v { // churn directive: close the selected live edge
			if g.NumEdges() == 0 {
				continue
			}
			id := EdgeID((int(b2)<<8 | int(b3)) % g.NumEdges())
			if !g.EdgeRemoved(id) {
				if err := g.RemoveEdge(id); err != nil {
					return nil
				}
			}
			continue
		}
		if g.HasEdgeBetween(u, v) {
			continue
		}
		if _, err := g.AddEdge(u, v, float64(b2%100)+1, float64(b3%100)+1); err != nil {
			return nil
		}
	}
	if g.NumLiveEdges() == 0 {
		return nil
	}
	return g
}

// checkSimplePath asserts structural validity, simplicity and endpoints.
func checkSimplePath(t *testing.T, g *Graph, p Path, src, dst NodeID, what string) {
	t.Helper()
	if !p.Valid(g) {
		t.Fatalf("%s: structurally invalid path %v", what, p)
	}
	if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
		t.Fatalf("%s: path connects %d->%d, want %d->%d", what, p.Nodes[0], p.Nodes[len(p.Nodes)-1], src, dst)
	}
	seen := map[NodeID]bool{}
	for _, u := range p.Nodes {
		if seen[u] {
			t.Fatalf("%s: path revisits node %d: %v", what, u, p.Nodes)
		}
		seen[u] = true
	}
}

func pathCost(g *Graph, p Path, w WeightFunc) float64 {
	total := 0.0
	for i, eid := range p.Edges {
		total += w(g.Edge(eid), p.Nodes[i])
	}
	return total
}

func FuzzPathFinder(f *testing.F) {
	f.Add([]byte{5, 0, 1, 10, 10, 1, 2, 10, 10, 2, 3, 10, 10, 0, 3, 1, 1}, uint8(0), uint8(3), uint8(5))
	f.Add([]byte{8, 0, 1, 50, 2, 1, 2, 50, 2, 0, 2, 1, 99, 2, 3, 7, 7}, uint8(0), uint8(2), uint8(20))
	f.Add([]byte{3, 0, 1, 1, 1}, uint8(0), uint8(2), uint8(1))
	// Post-churn seeds: u==v quadruples close channels mid-build, leaving
	// tombstoned edge slots and a compacted CSR.
	f.Add([]byte{5, 0, 1, 10, 10, 1, 2, 10, 10, 2, 3, 10, 10, 0, 3, 1, 1, 2, 2, 0, 1, 1, 2, 9, 9}, uint8(0), uint8(3), uint8(5))
	f.Add([]byte{9, 0, 1, 20, 20, 1, 2, 20, 20, 2, 0, 20, 20, 3, 3, 0, 0, 0, 2, 5, 5, 4, 4, 0, 2, 2, 3, 8, 8}, uint8(0), uint8(3), uint8(4))
	// Multi-target with an unreachable third target (node 4 is isolated).
	f.Add([]byte{2, 0, 1, 10, 10, 1, 2, 10, 10, 2, 3, 10, 10, 0, 3, 1, 1}, uint8(0), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, srcRaw, dstRaw, minCapRaw uint8) {
		g := buildFuzzGraph(data)
		if g == nil {
			t.Skip()
		}
		src := NodeID(int(srcRaw) % g.NumNodes())
		dst := NodeID(int(dstRaw) % g.NumNodes())
		if src == dst {
			t.Skip()
		}
		pf := NewPathFinder(g)

		// Unit shortest path vs BFS hop distance.
		hops := g.BFSHops(src)
		p, ok := pf.UnitShortestPath(src, dst)
		if (hops[dst] >= 0) != ok {
			t.Fatalf("UnitShortestPath reachability %v disagrees with BFS %d", ok, hops[dst])
		}
		if ok {
			checkSimplePath(t, g, p, src, dst, "UnitShortestPath")
			if p.Len() != hops[dst] {
				t.Fatalf("UnitShortestPath length %d != BFS distance %d", p.Len(), hops[dst])
			}
		}

		// A hub-label tier rooted at src must serve a byte-identical answer
		// (the precomputed-vs-exact cross-check, on the fuzzed graph).
		hl := NewHubLabels(g, nil, []NodeID{src})
		lp, lok := hl.UnitShortestPath(src, dst)
		if lok != ok || (ok && !pathsEqual(lp, p)) {
			t.Fatalf("hub label %v/%v != finder %v/%v", lp, lok, p, ok)
		}

		// Multi-target search (duplicate targets, src among them, a third
		// fuzzed target that may be unreachable) vs its pop-to-target
		// reference, path for path.
		dsts := []NodeID{dst, src, NodeID(int(minCapRaw) % g.NumNodes()), dst}
		if got, want := pf.UnitShortestPaths(src, dsts), refUnitShortestPaths(NewPathFinder(g), src, dsts); !pathListsEqual(got, want) {
			t.Fatalf("UnitShortestPaths %d->%v:\nref %v\ngot %v", src, dsts, want, got)
		}

		// Weighted shortest path: finder vs baseline, cost-equivalent.
		w := func(e Edge, from NodeID) float64 { return 1 + 1/e.Capacity(from) }
		fp, fok := pf.ShortestPath(src, dst, w)
		bp, bok := NewPathFinder(g).ShortestPath(src, dst, w)
		if fok != bok {
			t.Fatalf("finder reachability %v != baseline %v", fok, bok)
		}
		if fok {
			checkSimplePath(t, g, fp, src, dst, "ShortestPath")
			fc, bc := pathCost(g, fp, w), pathCost(g, bp, w)
			if math.Abs(fc-bc) > 1e-9*(1+math.Abs(bc)) {
				t.Fatalf("finder cost %v != baseline cost %v", fc, bc)
			}
		}

		// Capacity-filtered search respects the threshold on every hop.
		minCap := float64(minCapRaw%100) + 1
		cw := minCapUnitWeight(minCap)
		if cp, cok := pf.ShortestPath(src, dst, cw); cok {
			checkSimplePath(t, g, cp, src, dst, "CapacityFiltered")
			for i, eid := range cp.Edges {
				if got := g.Edge(eid).Capacity(cp.Nodes[i]); got < minCap {
					t.Fatalf("capacity-filtered path uses arc with capacity %v < %v", got, minCap)
				}
			}
		}

		// Widest path: finder vs baseline bottleneck equality, and the
		// bottleneck must not beat the best single-arc bound.
		wp, wok := pf.widestPath(src, dst, false)
		bwp, bwok := NewPathFinder(g).widestPath(src, dst, false)
		if wok != bwok {
			t.Fatalf("widest reachability %v != baseline %v", wok, bwok)
		}
		if wok {
			checkSimplePath(t, g, wp, src, dst, "WidestPath")
			if math.Abs(wp.Bottleneck(g)-bwp.Bottleneck(g)) > 1e-9 {
				t.Fatalf("widest bottleneck %v != baseline %v", wp.Bottleneck(g), bwp.Bottleneck(g))
			}
		}
	})
}

func FuzzKShortestPaths(f *testing.F) {
	f.Add([]byte{6, 0, 1, 10, 10, 1, 2, 10, 10, 0, 2, 5, 5, 2, 3, 9, 9, 1, 3, 2, 2}, uint8(0), uint8(3), uint8(4))
	f.Add([]byte{4, 0, 1, 30, 30, 1, 2, 30, 30, 0, 2, 30, 30}, uint8(0), uint8(2), uint8(3))
	f.Add([]byte{10, 0, 9, 1, 1}, uint8(0), uint8(9), uint8(7))
	// Post-churn: a closed channel (u==v directive) mid-build.
	f.Add([]byte{6, 0, 1, 10, 10, 1, 2, 10, 10, 0, 2, 5, 5, 2, 3, 9, 9, 1, 1, 0, 2, 1, 3, 2, 2}, uint8(0), uint8(3), uint8(4))
	// Dead ends: dst 3 (then src 3) hangs off one channel, so the second
	// edge-disjoint search is skipped.
	f.Add([]byte{6, 0, 1, 10, 10, 1, 2, 10, 10, 0, 2, 5, 5, 2, 3, 9, 9}, uint8(0), uint8(3), uint8(6))
	f.Add([]byte{6, 0, 1, 10, 10, 1, 2, 10, 10, 0, 2, 5, 5, 2, 3, 9, 9}, uint8(3), uint8(0), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, srcRaw, dstRaw, kRaw uint8) {
		g := buildFuzzGraph(data)
		if g == nil {
			t.Skip()
		}
		src := NodeID(int(srcRaw) % g.NumNodes())
		dst := NodeID(int(dstRaw) % g.NumNodes())
		if src == dst {
			t.Skip()
		}
		k := int(kRaw%7) + 1
		pf := NewPathFinder(g)

		for _, tc := range []struct {
			name  string
			paths []Path
			w     WeightFunc
		}{
			{"unit", pf.KShortestPathsUnit(src, dst, k), UnitWeight},
			{"weighted", pf.KShortestPaths(src, dst, k, func(e Edge, from NodeID) float64 {
				return 1 + 1/e.Capacity(from)
			}), func(e Edge, from NodeID) float64 { return 1 + 1/e.Capacity(from) }},
		} {
			paths := tc.paths
			if len(paths) > k {
				t.Fatalf("%s: got %d paths, asked for %d", tc.name, len(paths), k)
			}
			prev := math.Inf(-1)
			for i, p := range paths {
				checkSimplePath(t, g, p, src, dst, tc.name)
				// Cost-sorted, non-decreasing.
				c := pathCost(g, p, tc.w)
				if c < prev-1e-9 {
					t.Fatalf("%s: paths not cost-sorted: %v after %v", tc.name, c, prev)
				}
				prev = c
				// Distinct.
				for j := 0; j < i; j++ {
					if p.Equal(paths[j]) {
						t.Fatalf("%s: duplicate path at %d and %d: %v", tc.name, j, i, p)
					}
				}
			}
			// Head equals the plain shortest path's cost.
			if sp, ok := pf.ShortestPath(src, dst, tc.w); ok {
				if len(paths) == 0 {
					t.Fatalf("%s: shortest path exists but KSP returned none", tc.name)
				}
				want := pathCost(g, sp, tc.w)
				got := pathCost(g, paths[0], tc.w)
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("%s: KSP head cost %v != shortest path cost %v", tc.name, got, want)
				}
			} else if len(paths) > 0 {
				t.Fatalf("%s: KSP found paths where none exist", tc.name)
			}
		}

		// Yen's unit spur searches stop at the first touch of dst; the
		// generic-weight Yen never enters runUnit and must agree exactly.
		ref := NewPathFinder(g)
		if got, want := pf.KShortestPathsUnit(src, dst, k), ref.KShortestPaths(src, dst, k, UnitWeight); !pathListsEqual(got, want) {
			t.Fatalf("KShortestPathsUnit:\nref %v\ngot %v", want, got)
		}

		// Edge-disjoint variants: same per-path guarantees plus pairwise
		// edge-disjointness (the property EDW/EDS routing relies on), and
		// identity with the extractors that have no dead-end skip.
		for _, tc := range []struct {
			name        string
			paths, want []Path
		}{
			{"EDS", pf.EdgeDisjointShortestPaths(src, dst, k), refEdgeDisjoint(ref, src, dst, k, false)},
			{"EDW", pf.EdgeDisjointWidestPaths(src, dst, k), refEdgeDisjoint(ref, src, dst, k, true)},
		} {
			if !pathListsEqual(tc.paths, tc.want) {
				t.Fatalf("%s:\nref %v\ngot %v", tc.name, tc.want, tc.paths)
			}
			used := map[EdgeID]int{}
			for i, p := range tc.paths {
				checkSimplePath(t, g, p, src, dst, tc.name)
				for _, eid := range p.Edges {
					if prev, taken := used[eid]; taken {
						t.Fatalf("%s: edge %d reused by paths %d and %d", tc.name, eid, prev, i)
					}
					used[eid] = i
				}
			}
		}
	})
}
