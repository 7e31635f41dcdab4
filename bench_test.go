package splicer

// One benchmark per table and figure of the paper's evaluation (§V). Each
// benchmark regenerates its figure/table through the scenario engine runner
// that `go run ./cmd/scenarios run <name>` uses, on an explicit trimmed axis
// so a single iteration stays in benchmark budget while preserving the
// comparison structure. Run the full paper-size sweeps with:
//
//	go run ./cmd/scenarios run small -workers -1
//	go run ./cmd/scenarios run large -workers -1
//
//	go test -bench=. -benchmem

import (
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/scenario"
)

// benchSmall trims the small-scale spec for per-iteration budgets.
func benchSmall() scenario.Spec {
	s := scenario.SmallSpec()
	s.Workload.Duration = 4
	s.Workload.Rate = 80
	return s
}

// benchLarge keeps the large node count (the point of Fig. 8) with a short
// trace.
func benchLarge() scenario.Spec {
	s := scenario.LargeSpec()
	s.Workload.Duration = 2
	s.Workload.Rate = 150
	return s
}

// benchFigure runs one figure panel: every default scheme over the axis.
func benchFigure(b *testing.B, spec scenario.Spec, param string, xs []float64, metric scenario.Metric) {
	b.Helper()
	axis := scenario.Axis{Param: param, Values: xs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series, err := scenario.RunFigure(spec, axis, scenario.DefaultSchemes(), metric, scenario.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(series) == 0 {
			b.Fatal("no series")
		}
	}
}

// benchPoints runs a panel that reports its point count, failing on none.
func benchPoints(b *testing.B, run func() (int, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig7aChannelSizeSmall(b *testing.B) {
	benchFigure(b, benchSmall(), "channel_scale", []float64{0.5, 2}, scenario.MetricTSR)
}

func BenchmarkFig7bTxnSizeSmall(b *testing.B) {
	benchFigure(b, benchSmall(), "value_scale", []float64{1, 4}, scenario.MetricTSR)
}

func BenchmarkFig7cUpdateTimeSmall(b *testing.B) {
	benchFigure(b, benchSmall(), "tau_ms", []float64{200, 800}, scenario.MetricTSR)
}

func BenchmarkFig7dThroughputSmall(b *testing.B) {
	benchFigure(b, benchSmall(), "tau_ms", []float64{200, 800}, scenario.MetricThroughput)
}

func BenchmarkFig8aChannelSizeLarge(b *testing.B) {
	benchFigure(b, benchLarge(), "channel_scale", []float64{1}, scenario.MetricTSR)
}

func BenchmarkFig8bTxnSizeLarge(b *testing.B) {
	benchFigure(b, benchLarge(), "value_scale", []float64{2}, scenario.MetricTSR)
}

func BenchmarkFig8cUpdateTimeLarge(b *testing.B) {
	benchFigure(b, benchLarge(), "tau_ms", []float64{400}, scenario.MetricTSR)
}

func BenchmarkFig8dThroughputLarge(b *testing.B) {
	benchFigure(b, benchLarge(), "tau_ms", []float64{400}, scenario.MetricThroughput)
}

func BenchmarkFig9aBalanceCost(b *testing.B) {
	benchPoints(b, func() (int, error) {
		s, err := scenario.BalanceCostSeries(benchSmall(), []float64{0.05, 0.5}, scenario.RunOptions{})
		return len(s), err
	})
}

func BenchmarkFig9bTradeoff(b *testing.B) {
	benchPoints(b, func() (int, error) {
		pts, err := scenario.CostTradeoff(benchSmall(), []float64{0.05, 0.5}, scenario.RunOptions{})
		return len(pts), err
	})
}

func BenchmarkFig9cHubCountSmall(b *testing.B) {
	benchPoints(b, func() (int, error) {
		s, err := scenario.HubCount(benchSmall(), []float64{0.05, 0.5}, scenario.RunOptions{})
		return len(s.Points), err
	})
}

func BenchmarkFig9dHubCountLarge(b *testing.B) {
	benchPoints(b, func() (int, error) {
		s, err := scenario.HubCount(benchLarge(), []float64{0.05}, scenario.RunOptions{})
		return len(s.Points), err
	})
}

func BenchmarkFig9eDelayOverheadSmall(b *testing.B) {
	benchPoints(b, func() (int, error) {
		pts, err := scenario.DelayOverhead(benchSmall(), []float64{0.05, 0.5}, scenario.RunOptions{})
		return len(pts), err
	})
}

func BenchmarkFig9fDelayOverheadLarge(b *testing.B) {
	benchPoints(b, func() (int, error) {
		pts, err := scenario.DelayOverhead(benchLarge(), []float64{0.05}, scenario.RunOptions{})
		return len(pts), err
	})
}

func BenchmarkTableIMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := scenario.TableI()
		if len(t.Rows) != 6 {
			b.Fatal("bad matrix")
		}
	}
}

// benchTableII runs the routing-choice study at small scale over the given
// choices; each of the four rows is one choice.
func benchTableII(b *testing.B, opts scenario.ChoicesOptions) {
	b.Helper()
	s := benchSmall()
	opts.SkipLarge = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := scenario.RoutingChoices(s, s, opts, scenario.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows: %d", len(rows))
		}
	}
}

func BenchmarkTableIIPathType(b *testing.B) {
	benchTableII(b, scenario.ChoicesOptions{
		PathTypes:   []routing.PathType{routing.EDW, routing.EDS},
		PathNumbers: []int{5},
		Schedulers:  []string{"LIFO"},
	})
}

func BenchmarkTableIIPathNumber(b *testing.B) {
	benchTableII(b, scenario.ChoicesOptions{
		PathTypes:   []routing.PathType{routing.EDW},
		PathNumbers: []int{1, 5},
		Schedulers:  []string{"LIFO"},
	})
}

func BenchmarkTableIIScheduler(b *testing.B) {
	benchTableII(b, scenario.ChoicesOptions{
		PathTypes:   []routing.PathType{routing.EDW},
		PathNumbers: []int{5},
		Schedulers:  []string{"LIFO", "FIFO"},
	})
}

// BenchmarkFigScale is the scaling panel trimmed to one mid-size point; the
// full 2k-10k grid runs via  go run ./cmd/scenarios run figscale.
func BenchmarkFigScale(b *testing.B) {
	s := scenario.ScaleSpec()
	s.Workload.Rate = 60
	s.Workload.Duration = 2
	benchFigure(b, s, "nodes", []float64{400}, scenario.MetricThroughput)
}

// Micro-benchmarks of the core machinery (placement solvers, the
// path-computation layer and one simulation step) for the ablation story in
// DESIGN.md.

// benchGraph builds the Watts–Strogatz topology of a spec with the given
// seed and size.
func benchGraph(b *testing.B, seed uint64, nodes int) *Graph {
	b.Helper()
	spec := Spec{
		Seed:     seed,
		Topology: TopologySpec{Type: "watts-strogatz", Nodes: nodes},
		Workload: WorkloadSpec{Type: "synthetic", Rate: 1, Duration: 1},
	}
	g, err := spec.BuildGraph()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkPathFinder measures repeated shortest-path queries on one reused
// finder — the simulator's hot planning path after the PR-2 rewrite.
func BenchmarkPathFinder(b *testing.B) {
	g := benchGraph(b, 6, 2000)
	pf := graph.NewPathFinder(g)
	n := g.NumNodes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := graph.NodeID(i % n)
		dst := graph.NodeID((i + n/2) % n)
		if _, ok := pf.ShortestPath(src, dst, graph.UnitWeight); !ok {
			b.Fatalf("%d->%d unreachable", src, dst)
		}
	}
}

// BenchmarkRouteCache measures the per-payment cost of a cached route
// lookup — the steady-state planning cost for repeat sender/recipient pairs.
func BenchmarkRouteCache(b *testing.B) {
	g := benchGraph(b, 7, 500)
	c := pcn.NewRouteCache()
	pf := graph.NewPathFinder(g)
	n := g.NumNodes()
	keys := make([]pcn.RouteKey, 256)
	for i := range keys {
		src := graph.NodeID(i % n)
		dst := graph.NodeID((i + n/2) % n)
		keys[i] = pcn.RouteKey{Src: src, Dst: dst, Type: routing.KSP, K: 1}
		p, ok := pf.ShortestPath(src, dst, graph.UnitWeight)
		if !ok {
			b.Fatalf("%d->%d unreachable", src, dst)
		}
		c.Put(keys[i], []graph.Path{p})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkPlacementExact10(b *testing.B) {
	g := benchGraph(b, 1, 100)
	cands := TopDegreeNodes(g, 10)
	candSet := map[NodeID]bool{}
	for _, c := range cands {
		candSet[c] = true
	}
	var clients []NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if !candSet[NodeID(i)] {
			clients = append(clients, NodeID(i))
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlaceHubs(g, clients, cands, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlacementApprox24(b *testing.B) {
	g := benchGraph(b, 2, 1000)
	cands := TopDegreeNodes(g, 24)
	candSet := map[NodeID]bool{}
	for _, c := range cands {
		candSet[c] = true
	}
	var clients []NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if !candSet[NodeID(i)] {
			clients = append(clients, NodeID(i))
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlaceHubs(g, clients, cands, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulationSplicer100(b *testing.B) {
	spec := Spec{
		Seed:     3,
		Topology: TopologySpec{Type: "watts-strogatz", Nodes: 100},
		Workload: WorkloadSpec{Type: "synthetic", Rate: 100, Duration: 4, ZipfSkew: 0.8, CirculationFraction: 0.2},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.RunScheme(Splicer); err != nil {
			b.Fatal(err)
		}
	}
}
