package graph

// Equivalence tests for the first-touch kernels (see runUnit): the ban-aware
// unit search and the multi-target search return as soon as their answer is
// fixed, and the edge-disjoint extractors skip a search that is bound to
// fail. The pop-to-target loops and skip-free extractors they replaced are
// kept below as reference implementations; every comparison is on
// Nodes/Edges identity, not path length — Dijkstra tie-breaks are observable
// through every figure.

import (
	"math/rand"
	"slices"
	"testing"
)

// refRunUnit is the ban-aware loop of PathFinder.runUnit as it stood before
// the early return: it expands until dst is popped.
func refRunUnit(pf *PathFinder, src, dst NodeID, banEdges, banNodes bool) bool {
	pf.begin()
	pf.g.csrEnsure()
	pf.uheap.reset()
	sd := pf.query << 1
	state, dist := pf.state, pf.dist
	prevEdge, prevNode := pf.prevEdge, pf.prevNode
	span, slab := pf.g.csr.span, pf.g.csr.slab
	dist[src] = 0
	prevEdge[src] = -1
	prevNode[src] = -1
	state[src] = sd
	pf.uheap.push(src, 0)
	for pf.uheap.len() > 0 {
		u, du := pf.uheap.pop()
		if state[u] == sd|1 {
			continue
		}
		state[u] = sd | 1
		if u == dst {
			break
		}
		nd := du + 1
		fnd := float64(nd)
		s := span[u]
		for _, arc := range slab[s.off : s.off+s.n] {
			eid := EdgeID(uint32(arc))
			if banEdges && pf.edgeStamp[eid] == pf.edgeGen {
				continue
			}
			v := NodeID(arc >> 32)
			sv := state[v]
			if sv == sd|1 {
				continue
			}
			if banNodes && pf.bannedNode[v] {
				continue
			}
			if sv < sd || fnd < dist[v] {
				dist[v] = fnd
				prevEdge[v] = eid
				prevNode[v] = u
				state[v] = sd
				pf.uheap.push(v, nd)
			}
		}
	}
	return pf.state[dst] >= sd
}

func refShortestUnit(pf *PathFinder, src, dst NodeID, banEdges, banNodes bool) (Path, bool) {
	if !refRunUnit(pf, src, dst, banEdges, banNodes) {
		return Path{}, false
	}
	return reconstruct(src, dst, pf.prevNode, pf.prevEdge), true
}

// refUnitShortestPaths is PathFinder.UnitShortestPaths as it stood before
// first-touch accounting: targets are ticked off as they are popped.
func refUnitShortestPaths(pf *PathFinder, src NodeID, dsts []NodeID) []Path {
	out := make([]Path, len(dsts))
	if len(dsts) == 0 {
		return out
	}
	pf.begin()
	pf.g.csrEnsure()
	pf.uheap.reset()
	sd := pf.query << 1
	reached := make([]bool, len(dsts))
	remaining := len(dsts)
	state, dist := pf.state, pf.dist
	prevEdge, prevNode := pf.prevEdge, pf.prevNode
	span, slab := pf.g.csr.span, pf.g.csr.slab
	dist[src] = 0
	prevEdge[src] = -1
	prevNode[src] = -1
	state[src] = sd
	pf.uheap.push(src, 0)
	for pf.uheap.len() > 0 && remaining > 0 {
		u, du := pf.uheap.pop()
		if state[u] == sd|1 {
			continue
		}
		state[u] = sd | 1
		for i, d := range dsts {
			if d == u && !reached[i] {
				reached[i] = true
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
		nd := du + 1
		fnd := float64(nd)
		s := span[u]
		for _, arc := range slab[s.off : s.off+s.n] {
			v := NodeID(arc >> 32)
			sv := state[v]
			if sv == sd|1 {
				continue
			}
			if sv < sd || fnd < dist[v] {
				dist[v] = fnd
				prevEdge[v] = EdgeID(uint32(arc))
				prevNode[v] = u
				state[v] = sd
				pf.uheap.push(v, nd)
			}
		}
	}
	for i, d := range dsts {
		if reached[i] {
			out[i] = reconstruct(src, d, pf.prevNode, pf.prevEdge)
		}
	}
	return out
}

// refEdgeDisjoint is the greedy extractor without the dead-end skip: it
// learns that no path is left from a failed search.
func refEdgeDisjoint(pf *PathFinder, src, dst NodeID, k int, widest bool) []Path {
	pf.beginEdgeSet()
	var out []Path
	for len(out) < k {
		var p Path
		var ok bool
		if widest {
			p, ok = pf.widestPath(src, dst, true)
		} else {
			p, ok = refShortestUnit(pf, src, dst, true, false)
		}
		if !ok {
			break
		}
		out = append(out, p)
		for _, eid := range p.Edges {
			pf.banEdge(eid)
		}
	}
	return out
}

// wattsStrogatzTestGraph and erdosRenyiTestGraph mirror the topology
// package's generators (which this package cannot import). Neither stitches
// components together, and a few channels are one-sided or empty, so
// unreachable targets and zero-capacity arcs both occur.
func wattsStrogatzTestGraph(t *testing.T, rng *rand.Rand, n, k int, beta float64) *Graph {
	t.Helper()
	g := New(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if rng.Float64() < beta {
				if w := rng.Intn(n); w != u && !g.HasEdgeBetween(NodeID(u), NodeID(w)) {
					v = w
				}
			}
			if g.HasEdgeBetween(NodeID(u), NodeID(v)) {
				continue
			}
			addTestEdge(t, rng, g, NodeID(u), NodeID(v))
		}
	}
	return g
}

func erdosRenyiTestGraph(t *testing.T, rng *rand.Rand, n int, p float64) *Graph {
	t.Helper()
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				addTestEdge(t, rng, g, NodeID(u), NodeID(v))
			}
		}
	}
	return g
}

func addTestEdge(t *testing.T, rng *rand.Rand, g *Graph, u, v NodeID) {
	t.Helper()
	fwd, rev := 1+rng.Float64()*99, 1+rng.Float64()*99
	switch rng.Intn(12) {
	case 0:
		fwd = 0
	case 1:
		rev = 0
	case 2:
		fwd, rev = 0, 0
	}
	if _, err := g.AddEdge(u, v, fwd, rev); err != nil {
		t.Fatal(err)
	}
}

// churnTestGraph applies random AddEdge/RemoveEdge mutations in place, so
// the kernels are compared over tombstoned edge slots and migrated,
// compacted CSR spans as well as freshly built ones.
func churnTestGraph(t *testing.T, rng *rand.Rand, g *Graph, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		if rng.Intn(2) == 0 && g.NumEdges() > 0 {
			if id := EdgeID(rng.Intn(g.NumEdges())); !g.EdgeRemoved(id) {
				if err := g.RemoveEdge(id); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		u, v := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
		if u != v {
			addTestEdge(t, rng, g, u, v)
		}
	}
}

func pathListsEqual(a, b []Path) bool { return slices.EqualFunc(a, b, pathsEqual) }

// checkFirstTouchKernels compares every changed kernel with its reference
// over random queries on g. got and ref run on separate finders so neither
// sees the other's scratch.
func checkFirstTouchKernels(t *testing.T, rng *rand.Rand, g *Graph, what string, queries int) {
	t.Helper()
	got, ref := NewPathFinder(g), NewPathFinder(g)
	n := g.NumNodes()
	node := func() NodeID { return NodeID(rng.Intn(n)) }
	for q := 0; q < queries; q++ {
		src, dst := node(), node()
		if q%16 == 0 {
			dst = src
		}

		// The ban-aware search under a random banned node and edge set (src
		// is never banned, as in Yen's spur searches), in each flag
		// combination the callers use.
		got.beginEdgeSet()
		ref.beginEdgeSet()
		for i := rng.Intn(1 + g.NumEdges()/6); i > 0; i-- {
			id := EdgeID(rng.Intn(g.NumEdges()))
			got.banEdge(id)
			ref.banEdge(id)
		}
		var banned []NodeID
		for i := rng.Intn(1 + n/8); i > 0; i-- {
			if v := node(); v != src {
				banned = append(banned, v)
				got.bannedNode[v], ref.bannedNode[v] = true, true
			}
		}
		for _, flags := range [][2]bool{{true, true}, {true, false}} {
			gp, gok := got.shortestUnit(src, dst, flags[0], flags[1])
			rp, rok := refShortestUnit(ref, src, dst, flags[0], flags[1])
			if gok != rok || !pathsEqual(gp, rp) {
				t.Fatalf("%s: banned search %d->%d (ban nodes %v):\nref %v %v\ngot %v %v",
					what, src, dst, flags[1], rp, rok, gp, gok)
			}
		}
		for _, v := range banned {
			got.bannedNode[v], ref.bannedNode[v] = false, false
		}

		// Multi-target: duplicate targets, src among the targets, and
		// (on these unstitched graphs) unreachable ones.
		dsts := make([]NodeID, 1+rng.Intn(6))
		for i := range dsts {
			dsts[i] = node()
		}
		if len(dsts) > 1 {
			dsts[len(dsts)-1] = dsts[0]
		}
		if q%5 == 0 {
			dsts[rng.Intn(len(dsts))] = src
		}
		if gm, rm := got.UnitShortestPaths(src, dsts), refUnitShortestPaths(ref, src, dsts); !pathListsEqual(gm, rm) {
			t.Fatalf("%s: multi-target %d->%v:\nref %v\ngot %v", what, src, dsts, rm, gm)
		}

		// Yen: the generic-weight KShortestPaths never enters runUnit and
		// still pops every spur search to its target.
		k := 1 + rng.Intn(5)
		if gk, rk := got.KShortestPathsUnit(src, dst, k), ref.KShortestPaths(src, dst, k, UnitWeight); !pathListsEqual(gk, rk) {
			t.Fatalf("%s: k-shortest %d->%d k=%d:\nref %v\ngot %v", what, src, dst, k, rk, gk)
		}

		// Edge-disjoint extractors against their skip-free twins.
		if ge, re := got.EdgeDisjointShortestPaths(src, dst, k), refEdgeDisjoint(ref, src, dst, k, false); !pathListsEqual(ge, re) {
			t.Fatalf("%s: EDS %d->%d k=%d:\nref %v\ngot %v", what, src, dst, k, re, ge)
		}
		if ge, re := got.EdgeDisjointWidestPaths(src, dst, k), refEdgeDisjoint(ref, src, dst, k, true); !pathListsEqual(ge, re) {
			t.Fatalf("%s: EDW %d->%d k=%d:\nref %v\ngot %v", what, src, dst, k, re, ge)
		}
	}
}

func TestFirstTouchKernelsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		ws := wattsStrogatzTestGraph(t, rng, 60+rng.Intn(120), 4+2*rng.Intn(2), 0.05+0.4*rng.Float64())
		checkFirstTouchKernels(t, rng, ws, "watts-strogatz", 120)
		er := erdosRenyiTestGraph(t, rng, 40+rng.Intn(80), 0.02+0.06*rng.Float64())
		checkFirstTouchKernels(t, rng, er, "erdos-renyi", 120)
		for round := 0; round < 4; round++ {
			churnTestGraph(t, rng, ws, 40)
			checkFirstTouchKernels(t, rng, ws, "watts-strogatz after churn", 60)
			churnTestGraph(t, rng, er, 25)
			checkFirstTouchKernels(t, rng, er, "erdos-renyi after churn", 60)
		}
	}
}
