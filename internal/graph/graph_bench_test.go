package graph

import (
	"math"
	"testing"

	"github.com/splicer-pcn/splicer/internal/rng"
)

func benchGraph(b *testing.B, n int) *Graph {
	b.Helper()
	src := rng.New(1)
	g := New(n)
	// Ring + random chords: connected with diverse paths.
	for i := 0; i < n; i++ {
		if _, err := g.AddEdge(NodeID(i), NodeID((i+1)%n), 100, 100); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		u, v := NodeID(src.IntN(n)), NodeID(src.IntN(n))
		if u == v {
			continue
		}
		if _, err := g.AddEdge(u, v, src.Float64()*200+1, src.Float64()*200+1); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

func BenchmarkShortestPath1000(b *testing.B) {
	g := benchGraph(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := NewPathFinder(g).ShortestPath(0, 500, UnitWeight); !ok {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkWidestPath1000(b *testing.B) {
	g := benchGraph(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := NewPathFinder(g).widestPath(0, 500, false); !ok {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkKShortestPaths5(b *testing.B) {
	g := benchGraph(b, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths := NewPathFinder(g).KShortestPaths(0, 150, 5, UnitWeight); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkEdgeDisjointWidest5(b *testing.B) {
	g := benchGraph(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths := NewPathFinder(g).EdgeDisjointWidestPaths(0, 500, 5); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkPathFinderShortest1000(b *testing.B) {
	g := benchGraph(b, 1000)
	pf := NewPathFinder(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pf.ShortestPath(0, 500, UnitWeight); !ok {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkPathFinderWidest1000(b *testing.B) {
	g := benchGraph(b, 1000)
	pf := NewPathFinder(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pf.widestPath(0, 500, false); !ok {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkPathFinderKShortest5(b *testing.B) {
	g := benchGraph(b, 300)
	pf := NewPathFinder(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths := pf.KShortestPaths(0, 150, 5, UnitWeight); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkMaxFlow1000(b *testing.B) {
	g := benchGraph(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if total, _ := g.MaxFlowWith(new(MaxFlowScratch), 0, 500, math.Inf(1)); total <= 0 {
			b.Fatal("zero flow")
		}
	}
}

func BenchmarkBFSHops3000(b *testing.B) {
	g := benchGraph(b, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSHops(0)
	}
}
