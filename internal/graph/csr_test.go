package graph

// Consistency tests for the graph-owned packed adjacency: after ANY
// sequence of shape and capacity mutations, CSR iteration must match the
// pointer adjacency arc for arc (same edges, same order, same capacities),
// and the cheap mutations must stay on the incremental path (no full
// rebuild for a top-up or a single channel open/close).

import (
	"math/rand"
	"slices"
	"testing"
)

// checkCSRMatchesAdj verifies slab/span/caps/pos against the pointer
// adjacency, which remains the order source of truth.
func checkCSRMatchesAdj(t *testing.T, g *Graph) {
	t.Helper()
	if !g.csr.ok {
		t.Fatal("CSR not built")
	}
	c := &g.csr
	if len(c.span) != g.NumNodes() {
		t.Fatalf("span len %d, nodes %d", len(c.span), g.NumNodes())
	}
	for u := 0; u < g.NumNodes(); u++ {
		s := c.span[u]
		if int(s.n) != len(g.adj[u]) {
			t.Fatalf("node %d: span has %d arcs, adj has %d", u, s.n, len(g.adj[u]))
		}
		for i, eid := range g.adj[u] {
			arc := c.slab[s.off+int32(i)]
			if EdgeID(uint32(arc)) != eid {
				t.Fatalf("node %d arc %d: slab edge %d, adj edge %d", u, i, uint32(arc), eid)
			}
			e := g.edges[eid]
			if NodeID(arc>>32) != e.Other(NodeID(u)) {
				t.Fatalf("node %d arc %d: slab other %d, want %d", u, i, arc>>32, e.Other(NodeID(u)))
			}
			if c.caps[s.off+int32(i)] != e.Capacity(NodeID(u)) {
				t.Fatalf("node %d arc %d: slab cap %g, want %g", u, i, c.caps[s.off+int32(i)], e.Capacity(NodeID(u)))
			}
			side := 0
			if e.V == NodeID(u) {
				side = 1
			}
			if c.pos[eid][side] != s.off+int32(i) {
				t.Fatalf("edge %d side %d: pos %d, arc actually at %d", eid, side, c.pos[eid][side], s.off+int32(i))
			}
		}
	}
}

// churnStep applies one random mutation, mirroring what the dynamics layer
// does: joins, channel opens/closes (tombstoning), top-ups.
func churnStep(rng *rand.Rand, g *Graph) {
	switch op := rng.Intn(10); {
	case op == 0:
		g.AddNode()
	case op < 4: // open
		if g.NumNodes() < 2 {
			return
		}
		u := NodeID(rng.Intn(g.NumNodes()))
		v := NodeID(rng.Intn(g.NumNodes()))
		if u == v {
			return
		}
		if _, err := g.AddEdge(u, v, rng.Float64()*100, rng.Float64()*100); err != nil {
			panic(err)
		}
	case op < 7: // close a random live edge
		live := -1
		for tries := 0; tries < 8; tries++ {
			if g.NumEdges() == 0 {
				return
			}
			id := rng.Intn(g.NumEdges())
			if !g.removed[id] {
				live = id
				break
			}
		}
		if live < 0 {
			return
		}
		if err := g.RemoveEdge(EdgeID(live)); err != nil {
			panic(err)
		}
	default: // top-up
		if g.NumEdges() == 0 {
			return
		}
		id := rng.Intn(g.NumEdges())
		if g.removed[id] {
			return
		}
		g.SetCapacity(EdgeID(id), rng.Float64()*200, rng.Float64()*200)
	}
}

// TestCSRMatchesAdjUnderChurn is the property test: after any seeded churn
// timeline, CSR neighbor iteration equals pointer-adjacency iteration
// exactly.
func TestCSRMatchesAdjUnderChurn(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTestGraph(t, seed+500, 40, 80)
		g.csrEnsure()
		checkCSRMatchesAdj(t, g)
		for step := 0; step < 600; step++ {
			churnStep(rng, g)
			if step%37 == 0 {
				checkCSRMatchesAdj(t, g)
			}
		}
		checkCSRMatchesAdj(t, g)
		// And the CSR the queries see is the one we checked: a query after
		// the timeline must agree with a from-scratch finder on a clone
		// (whose CSR is a fresh dense build).
		pf := NewPathFinder(g)
		ref := NewPathFinder(g.Clone())
		for q := 0; q < 50; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			got, okG := pf.UnitShortestPath(src, dst)
			want, okW := ref.UnitShortestPath(src, dst)
			if okG != okW || (okG && !pathsEqual(got, want)) {
				t.Fatalf("seed %d: %d->%d incremental %v/%v vs rebuilt %v/%v", seed, src, dst, got, okG, want, okW)
			}
		}
	}
}

// TestTopUpStaysIncremental pins the dirty-region fix: a one-channel top-up
// must not force a CSR rebuild or a full capacity re-sync — it lands as two
// arc-slot writes.
func TestTopUpStaysIncremental(t *testing.T) {
	g := randomTestGraph(t, 42, 200, 400)
	pf := NewPathFinder(g)
	if _, ok := pf.widestPath(0, 100, false); !ok {
		t.Fatal("no widest path in connected graph")
	}
	base := g.csr.stats
	if base.Rebuilds != 1 {
		t.Fatalf("expected exactly the lazy initial build, got %d rebuilds", base.Rebuilds)
	}
	e := g.Edge(0)
	g.SetCapacity(0, e.CapFwd+5, e.CapRev+5)
	if _, ok := pf.widestPath(0, 100, false); !ok {
		t.Fatal("no widest path after top-up")
	}
	after := g.csr.stats
	if after.Rebuilds != base.Rebuilds {
		t.Fatalf("top-up forced a CSR rebuild (%d -> %d)", base.Rebuilds, after.Rebuilds)
	}
	if after.CapacityWrites != base.CapacityWrites+1 {
		t.Fatalf("expected 1 incremental capacity write, got %d", after.CapacityWrites-base.CapacityWrites)
	}
	// The write must actually land: starving a bridge changes widest paths.
	p, _ := pf.widestPath(0, 100, false)
	g.SetCapacity(p.Edges[0], 0, 0)
	if q, ok := pf.widestPath(0, 100, false); ok {
		for _, eid := range q.Edges {
			if eid == p.Edges[0] {
				t.Fatal("widest path used a zero-capacity channel: stale CSR capacity")
			}
		}
	}
}

// TestChurnStaysIncremental pins that channel opens/closes and node joins
// apply in place rather than rebuilding the O(E) layout.
func TestChurnStaysIncremental(t *testing.T) {
	g := randomTestGraph(t, 43, 200, 400)
	pf := NewPathFinder(g)
	pf.UnitShortestPath(0, 100)
	base := g.csr.stats
	id, err := g.AddEdge(0, 100, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	v := g.AddNode()
	if _, err := g.AddEdge(0, v, 1, 1); err != nil {
		t.Fatal(err)
	}
	pf.UnitShortestPath(0, v)
	after := g.csr.stats
	if after.Rebuilds != base.Rebuilds {
		t.Fatalf("churn forced %d CSR rebuilds", after.Rebuilds-base.Rebuilds)
	}
	if after.IncrementalOps != base.IncrementalOps+4 {
		t.Fatalf("expected 4 incremental ops, got %d", after.IncrementalOps-base.IncrementalOps)
	}
}

func TestMutationJournal(t *testing.T) {
	g := New(2)
	seq0 := g.MutationSeq()
	id, _ := g.AddEdge(0, 1, 1, 1)
	v := g.AddNode()
	if err := g.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	muts, ok := g.MutationsSince(seq0)
	if !ok || len(muts) != 3 {
		t.Fatalf("MutationsSince = %v ok=%v, want 3 mutations", muts, ok)
	}
	want := []Mutation{
		{Kind: MutAddEdge, Edge: id, U: 0, V: 1},
		{Kind: MutAddNode, Edge: -1, U: v, V: -1},
		{Kind: MutRemoveEdge, Edge: id, U: 0, V: 1},
	}
	for i, m := range muts {
		if m != want[i] {
			t.Fatalf("mutation %d = %+v, want %+v", i, m, want[i])
		}
	}
	// A cursor taken now sees nothing.
	if muts, ok := g.MutationsSince(g.MutationSeq()); !ok || len(muts) != 0 {
		t.Fatalf("fresh cursor saw %v ok=%v", muts, ok)
	}
	// Overflow trims the window; an old cursor must get ok=false.
	for i := 0; i < maxJournal+10; i++ {
		g.AddNode()
	}
	if _, ok := g.MutationsSince(seq0); ok {
		t.Fatal("cursor survived journal overflow")
	}
	// A future (bogus) cursor is also rejected.
	if _, ok := g.MutationsSince(g.MutationSeq() + 1); ok {
		t.Fatal("future cursor accepted")
	}
}

// adjBFSHops is the adjacency-list BFS that BFSHops ran before it walked the
// CSR: the reference the CSR searches must reproduce.
func adjBFSHops(g *Graph, src NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, eid := range g.adj[u] {
			if v := g.edges[eid].Other(u); dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// TestCSRBFSMatchesAdjUnderChurn: on churned graphs — tombstoned edges,
// joiners left isolated — the hop searches (BFSHops, BFSHopsInto with a
// reused queue, Components) give the reference adjacency BFS's answer for
// every source, both on the incrementally maintained CSR and on a clone
// that has none (where they must not build one), and PathFinder.UnitHops
// agrees with them.
func TestCSRBFSMatchesAdjUnderChurn(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTestGraph(t, seed+700, 40, 70)
		g.csrEnsure() // churn the incrementally maintained CSR, not a fresh build
		for step := 0; step < 400; step++ {
			churnStep(rng, g)
		}
		for j := 0; j < 3; j++ {
			g.AddNode() // isolated joiners
		}
		pf := NewPathFinder(g)
		for _, h := range []*Graph{g, g.Clone()} {
			csr := h.csr.ok
			label, count := h.Components()
			dist := make([]int, h.NumNodes())
			var queue []NodeID
			seenLabel := 0
			for s := 0; s < h.NumNodes(); s++ {
				src := NodeID(s)
				want := adjBFSHops(h, src)
				queue = h.BFSHopsInto(dist, src, queue)
				if !slices.Equal(dist, want) || !slices.Equal(h.BFSHops(src), want) {
					t.Fatalf("seed %d csr=%v src %d: hops %v, adjacency BFS %v", seed, csr, s, dist, want)
				}
				for v, d := range want {
					if got := pf.UnitHops(src, NodeID(v)); got != d {
						t.Fatalf("seed %d: UnitHops(%d, %d) = %d, BFS %d", seed, s, v, got, d)
					}
					if (d >= 0) != (label[v] == label[s]) {
						t.Fatalf("seed %d csr=%v: nodes %d, %d labelled %d, %d at hop distance %d", seed, csr, s, v, label[s], label[v], d)
					}
				}
				// Components are numbered by their lowest node.
				if label[s] == seenLabel {
					seenLabel++
				} else if label[s] > seenLabel {
					t.Fatalf("seed %d csr=%v: node %d opens component %d, want %d", seed, csr, s, label[s], seenLabel)
				}
			}
			if seenLabel != count || count < 4 {
				t.Fatalf("seed %d csr=%v: %d components seen, Components reported %d (want ≥ 4 with the joiners)", seed, csr, seenLabel, count)
			}
			if h.csr.ok != csr {
				t.Fatalf("seed %d: a hop search changed whether the graph has a CSR (%v → %v)", seed, csr, h.csr.ok)
			}
		}
	}
}
