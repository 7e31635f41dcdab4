package graph

// Correctness harness for the hub-label precomputation tier: every served
// answer must be byte-identical to the exact PathFinder's — on fresh
// graphs, after fuzzed churn timelines, and across the incremental-repair
// rules. These are the tests the CI label smoke runs (-run HubLabel).

import (
	"math/rand"
	"testing"
)

func randomHubs(rng *rand.Rand, g *Graph, k int) []NodeID {
	hubs := make([]NodeID, 0, k)
	for len(hubs) < k {
		hubs = append(hubs, NodeID(rng.Intn(g.NumNodes())))
	}
	return hubs
}

func TestHubLabelMatchesPathFinder(t *testing.T) {
	// The CI label smoke runs this with -short; the 2000-node scale is the
	// point of the smoke, so it is not reduced there.
	const n = 2000
	for seed := int64(0); seed < 3; seed++ {
		g := randomTestGraph(t, seed+900, n, 2*n)
		rng := rand.New(rand.NewSource(seed + 9000))
		hubs := randomHubs(rng, g, 6)
		hl := NewHubLabels(g, nil, hubs)
		ref := NewPathFinder(g)
		for q := 0; q < 300; q++ {
			var src NodeID
			if q%2 == 0 { // half the queries hub-rooted (served), half not (fallback)
				src = hubs[rng.Intn(len(hubs))]
			} else {
				src = NodeID(rng.Intn(g.NumNodes()))
			}
			dst := NodeID(rng.Intn(g.NumNodes()))
			got, okG := hl.UnitShortestPath(src, dst)
			want, okW := ref.UnitShortestPath(src, dst)
			if okG != okW || (okG && !pathsEqual(got, want)) {
				t.Fatalf("seed %d %d->%d: label %v/%v vs exact %v/%v", seed, src, dst, got, okG, want, okW)
			}
		}
		st := hl.Stats()
		if st.Served == 0 || st.Fallbacks == 0 {
			t.Fatalf("expected both served and fallback queries, got %+v", st)
		}
		if st.Builds != uint64(len(hl.hubs)) {
			t.Fatalf("static graph built %d trees for %d hubs", st.Builds, len(hl.hubs))
		}
	}
}

// TestHubLabelChurnCrossCheck fuzzes churn timelines between query rounds:
// precomputed answers must track the live graph through opens, closes,
// joins and top-ups, with repairs scoped by the journal rules.
func TestHubLabelChurnCrossCheck(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 7700))
		g := randomTestGraph(t, seed+770, 150, 300)
		hubs := randomHubs(rng, g, 5)
		hl := NewHubLabels(g, nil, hubs)
		ref := NewPathFinder(g)
		for round := 0; round < 30; round++ {
			for step := 0; step < 10; step++ {
				churnStep(rng, g)
			}
			for q := 0; q < 20; q++ {
				src := hubs[rng.Intn(len(hubs))]
				dst := NodeID(rng.Intn(g.NumNodes()))
				got, okG := hl.UnitShortestPath(src, dst)
				want, okW := ref.UnitShortestPath(src, dst)
				if okG != okW || (okG && !pathsEqual(got, want)) {
					t.Fatalf("seed %d round %d %d->%d: label %v/%v vs exact %v/%v",
						seed, round, src, dst, got, okG, want, okW)
				}
			}
		}
		st := hl.Stats()
		if st.NoopMutations == 0 {
			t.Fatalf("churn timeline never exercised a proven-noop repair: %+v", st)
		}
		if st.Resyncs != 0 {
			t.Fatalf("short timeline overflowed the journal: %+v", st)
		}
	}
}

func TestHubLabelKShortestMatchesPathFinder(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := randomTestGraph(t, seed+330, 120, 260)
		rng := rand.New(rand.NewSource(seed + 3300))
		hubs := randomHubs(rng, g, 4)
		hl := NewHubLabels(g, nil, hubs)
		ref := NewPathFinder(g)
		for q := 0; q < 60; q++ {
			src := hubs[rng.Intn(len(hubs))]
			dst := NodeID(rng.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			got := hl.KShortestPathsUnit(src, dst, 4)
			want := ref.KShortestPathsUnit(src, dst, 4)
			if len(got) != len(want) {
				t.Fatalf("seed %d %d->%d: %d vs %d paths", seed, src, dst, len(got), len(want))
			}
			for i := range want {
				if !pathsEqual(got[i], want[i]) {
					t.Fatalf("seed %d %d->%d path %d:\nlabel %v\nexact %v", seed, src, dst, i, got[i], want[i])
				}
			}
		}
	}
}

func TestHubLabelMultiTargetMatchesPathFinder(t *testing.T) {
	g := randomTestGraph(t, 88, 180, 360)
	rng := rand.New(rand.NewSource(8800))
	hubs := randomHubs(rng, g, 4)
	hl := NewHubLabels(g, nil, hubs)
	ref := NewPathFinder(g)
	for q := 0; q < 60; q++ {
		src := hubs[rng.Intn(len(hubs))]
		dsts := make([]NodeID, 5)
		for i := range dsts {
			dsts[i] = NodeID(rng.Intn(g.NumNodes()))
		}
		dsts[4] = dsts[0]
		got := hl.UnitShortestPaths(src, dsts)
		want := ref.UnitShortestPaths(src, dsts)
		for i := range want {
			if !pathsEqual(got[i], want[i]) {
				t.Fatalf("%d->%v entry %d:\nlabel %v\nexact %v", src, dsts, i, got[i], want[i])
			}
		}
	}
}

// TestHubLabelRepairScoping pins that churn repairs are scoped to affected
// hubs: a removed non-tree arc stales nothing, a removed tree arc stales
// exactly the trees using it.
func TestHubLabelRepairScoping(t *testing.T) {
	// Triangle 0-1-2 plus tail 2-3. From hub 0 the tree uses e0 (0-1),
	// e2 (2-0), e3 (2-3) — e1 (1-2) is a non-tree arc. From hub 3 the tree
	// uses e3, e1, e2 — e0 is a non-tree arc.
	g := New(4)
	e0, _ := g.AddEdge(0, 1, 1, 1)
	e1, _ := g.AddEdge(1, 2, 1, 1)
	_, _ = g.AddEdge(2, 0, 1, 1)
	_, _ = g.AddEdge(2, 3, 1, 1)
	hl := NewHubLabels(g, nil, []NodeID{0, 3})
	hl.UnitShortestPath(0, 3)
	hl.UnitShortestPath(3, 0)
	if st := hl.Stats(); st.Builds != 2 {
		t.Fatalf("expected 2 initial builds, got %+v", st)
	}

	// e1 is in hub 3's tree only.
	if err := g.RemoveEdge(e1); err != nil {
		t.Fatal(err)
	}
	if p, ok := hl.UnitShortestPath(0, 3); !ok || p.Len() != 2 {
		t.Fatalf("hub0 path after e1 removal = %v ok=%v", p, ok)
	}
	st := hl.Stats()
	if st.Builds != 2 {
		t.Fatalf("hub 0 rebuilt for a non-tree removal: %+v", st)
	}
	if st.StaleMarks != 1 || st.NoopMutations != 1 {
		t.Fatalf("removal of e1 should stale hub3 only: %+v", st)
	}
	if p, ok := hl.UnitShortestPath(3, 1); !ok || p.Len() != 3 {
		t.Fatalf("hub3 path after repair = %v ok=%v", p, ok)
	}
	st = hl.Stats()
	if st.Builds != 3 || st.Repairs != 1 {
		t.Fatalf("hub 3 should have repaired once: %+v", st)
	}

	// An equal-distance edge add is a proven no-op for hub 0
	// (dist0(1) == dist0(2) == 1) but stales hub 3 (dist3(1)=3 ≠ dist3(2)=1).
	if _, err := g.AddEdge(1, 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	hl.UnitShortestPath(0, 3)
	st = hl.Stats()
	if st.Builds != 3 {
		t.Fatalf("hub 0 rebuilt for an equal-distance add: %+v", st)
	}
	if st.NoopMutations != 2 || st.StaleMarks != 2 {
		t.Fatalf("equal-distance add should noop hub0, stale hub3: %+v", st)
	}
	// Capacity writes never touch labels.
	g.SetCapacity(e0, 99, 99)
	hl.UnitShortestPath(0, 3)
	hl.UnitShortestPath(3, 0)
	if st := hl.Stats(); st.Builds != 4 { // hub3's pending repair only
		t.Fatalf("top-up triggered label work: %+v", st)
	}
}

// TestHubLabelResync pins the journal-overflow path: an observer that falls
// behind the trimmed window resyncs (all trees stale) and stays correct.
func TestHubLabelResync(t *testing.T) {
	g := randomTestGraph(t, 55, 100, 200)
	hl := NewHubLabels(g, nil, []NodeID{0, 1})
	hl.UnitShortestPath(0, 50)
	for i := 0; i < maxJournal+100; i++ {
		id, err := g.AddEdge(NodeID(i%50), NodeID(50+i%50), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RemoveEdge(id); err != nil {
			t.Fatal(err)
		}
	}
	ref := NewPathFinder(g)
	got, okG := hl.UnitShortestPath(0, 50)
	want, okW := ref.UnitShortestPath(0, 50)
	if okG != okW || (okG && !pathsEqual(got, want)) {
		t.Fatalf("post-resync mismatch: %v/%v vs %v/%v", got, okG, want, okW)
	}
	if st := hl.Stats(); st.Resyncs != 1 {
		t.Fatalf("expected 1 resync, got %+v", st)
	}
}
