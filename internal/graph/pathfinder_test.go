package graph

import (
	"testing"

	"github.com/splicer-pcn/splicer/internal/rng"
)

// testGraph builds a connected random graph (ring + chords) for equivalence
// checks.
func testGraph(t *testing.T, n int, seed uint64) *Graph {
	t.Helper()
	src := rng.New(seed)
	g := New(n)
	for i := 0; i < n; i++ {
		if _, err := g.AddEdge(NodeID(i), NodeID((i+1)%n), 100, 100); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		u, v := NodeID(src.IntN(n)), NodeID(src.IntN(n))
		if u == v {
			continue
		}
		if _, err := g.AddEdge(u, v, src.Float64()*200+1, src.Float64()*200+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// A reused finder must return exactly what a fresh finder returns, query
// after query: stale stamps or heap state leaking between queries would
// corrupt later answers.
func TestPathFinderReuseMatchesFresh(t *testing.T) {
	g := testGraph(t, 60, 7)
	pf := NewPathFinder(g)
	src := rng.New(11)
	for q := 0; q < 200; q++ {
		s, d := NodeID(src.IntN(60)), NodeID(src.IntN(60))

		got, gotOK := pf.ShortestPath(s, d, UnitWeight)
		want, wantOK := NewPathFinder(g).ShortestPath(s, d, UnitWeight)
		if gotOK != wantOK || (gotOK && !got.Equal(want)) {
			t.Fatalf("query %d: shortest %d->%d reused %v/%v fresh %v/%v", q, s, d, got, gotOK, want, wantOK)
		}

		got, gotOK = pf.widestPath(s, d, false)
		want, wantOK = NewPathFinder(g).widestPath(s, d, false)
		if gotOK != wantOK || (gotOK && !got.Equal(want)) {
			t.Fatalf("query %d: widest %d->%d reused %v/%v fresh %v/%v", q, s, d, got, gotOK, want, wantOK)
		}
	}
}

func TestPathFinderKShortestMatchesFresh(t *testing.T) {
	g := testGraph(t, 40, 3)
	pf := NewPathFinder(g)
	src := rng.New(5)
	for q := 0; q < 40; q++ {
		s, d := NodeID(src.IntN(40)), NodeID(src.IntN(40))
		if s == d {
			continue
		}
		got := pf.KShortestPaths(s, d, 5, UnitWeight)
		want := NewPathFinder(g).KShortestPaths(s, d, 5, UnitWeight)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d->%d reused %d paths, fresh %d", q, s, d, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("query %d: %d->%d path %d differs: %v vs %v", q, s, d, i, got[i], want[i])
			}
			if !got[i].Valid(g) {
				t.Fatalf("query %d: invalid path %v", q, got[i])
			}
		}
	}
}

// Growing the graph after the finder was built must be picked up lazily
// (the multi-star reshape adds nodes' channels mid-lifetime).
func TestPathFinderTracksGraphGrowth(t *testing.T) {
	g := New(2)
	if _, err := g.AddEdge(0, 1, 10, 10); err != nil {
		t.Fatal(err)
	}
	pf := NewPathFinder(g)
	if _, ok := pf.ShortestPath(0, 1, UnitWeight); !ok {
		t.Fatal("0->1 unreachable")
	}
	v := g.AddNode()
	if _, err := g.AddEdge(1, v, 10, 10); err != nil {
		t.Fatal(err)
	}
	p, ok := pf.ShortestPath(0, v, UnitWeight)
	if !ok || p.Len() != 2 {
		t.Fatalf("after growth: path %v ok=%v", p, ok)
	}
}

// The reused finder must allocate substantially less than a fresh one per
// query — the whole point of the scratch-buffer design.
func TestPathFinderReuseAllocatesLess(t *testing.T) {
	g := testGraph(t, 500, 9)
	pf := NewPathFinder(g)
	pf.ShortestPath(0, 250, UnitWeight) // warm the heap capacity
	reused := testing.AllocsPerRun(50, func() {
		if _, ok := pf.ShortestPath(0, 250, UnitWeight); !ok {
			t.Fatal("unreachable")
		}
	})
	fresh := testing.AllocsPerRun(50, func() {
		if _, ok := NewPathFinder(g).ShortestPath(0, 250, UnitWeight); !ok {
			t.Fatal("unreachable")
		}
	})
	if reused > fresh/2 {
		t.Fatalf("reused finder allocates %v/op, fresh %v/op — want at least 2x fewer", reused, fresh)
	}
}
