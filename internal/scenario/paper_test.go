package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/routing"
)

// Shape checks of the paper's panels on trimmed specs, the multi-seed
// worker-invariance contract, and error propagation through every runner.

// tinySpec trims the small-scale spec so a runner finishes in well under a
// second.
func tinySpec() Spec {
	s := SmallSpec()
	s.Topology.Nodes = 50
	s.Workload.Rate = 30
	s.Workload.Duration = 3
	s.Routing.HubCandidates = 6
	return s
}

// tinyChurnSpec trims the churn spec the same way.
func tinyChurnSpec() Spec {
	s := ChurnSpec()
	s.Topology.Nodes = 50
	s.Workload.Rate = 40
	s.Workload.Duration = 3
	s.Routing.HubCandidates = 6
	return s
}

func TestScenarioDefaultsMatchPaper(t *testing.T) {
	small, large := SmallSpec(), LargeSpec()
	if small.Topology.Nodes != 100 || large.Topology.Nodes != 3000 {
		t.Fatalf("scales: %d / %d nodes, want 100 / 3000", small.Topology.Nodes, large.Topology.Nodes)
	}
	if small.Workload.Timeout != 3 || large.Workload.Timeout != 3 {
		t.Fatalf("timeouts %v / %v, want 3 s", small.Workload.Timeout, large.Workload.Timeout)
	}
}

// TestScenarioBuild: the trimmed spec builds a connected graph of the asked
// size with a non-empty trace.
func TestScenarioBuild(t *testing.T) {
	g, trace, err := tinySpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 50 || len(trace) == 0 || !g.Connected() {
		t.Fatalf("tiny spec built %d nodes, %d txs, connected=%v", g.NumNodes(), len(trace), g.Connected())
	}
}

// TestScaleScenarioBuilds: the scalability spec has the paper's 2000 nodes
// and builds at a reduced size.
func TestScaleScenarioBuilds(t *testing.T) {
	scale := ScaleSpec()
	if scale.Topology.Nodes != 2000 {
		t.Fatalf("scale spec has %d nodes, want 2000", scale.Topology.Nodes)
	}
	scale.Topology.Nodes = 60 // the shape is what matters here
	g, trace, err := scale.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 60 || len(trace) == 0 || !g.Connected() {
		t.Fatalf("scale spec built %d nodes, %d txs, connected=%v", g.NumNodes(), len(trace), g.Connected())
	}
}

// figure runs the five paper schemes over one axis of base and checks
// every point: x on the grid, y in [0, 1].
func figure(t *testing.T, base Spec, param string, xs []float64, metric Metric) map[string]Series {
	t.Helper()
	series, err := RunFigure(base, Axis{Param: param, Values: xs}, DefaultSchemes(), metric, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(DefaultSchemes()) {
		t.Fatalf("%d series, want %d", len(series), len(DefaultSchemes()))
	}
	byName := map[string]Series{}
	for _, s := range series {
		if len(s.Points) != len(xs) {
			t.Fatalf("%s has %d points, want %d", s.Name, len(s.Points), len(xs))
		}
		for i, p := range s.Points {
			if p.X != xs[i] || p.Y < 0 || p.Y > 1 {
				t.Fatalf("%s point %d = (%v, %v), want x=%v and y in [0, 1]", s.Name, i, p.X, p.Y, xs[i])
			}
		}
		byName[s.Name] = s
	}
	return byName
}

// TestFigChannelSizeShape is Fig. 7(a)'s shape: bigger channels do not
// hurt Splicer.
func TestFigChannelSizeShape(t *testing.T) {
	sp := figure(t, tinySpec(), "channel_scale", []float64{0.5, 2}, MetricTSR)["Splicer"]
	if sp.Points[1].Y+0.02 < sp.Points[0].Y {
		t.Fatalf("Splicer TSR fell with bigger channels: %v -> %v", sp.Points[0].Y, sp.Points[1].Y)
	}
}

// TestFigUpdateTimeSplicerStable is Fig. 7(c)'s shape: Splicer's TSR stays
// high as τ grows, and A2L ends below it.
func TestFigUpdateTimeSplicerStable(t *testing.T) {
	byName := figure(t, tinySpec(), "tau_ms", []float64{200, 800}, MetricTSR)
	splicer, a2l := byName["Splicer"], byName["A2L"]
	for _, p := range splicer.Points {
		if p.Y < 0.5 {
			t.Fatalf("Splicer TSR %v at τ=%vms too low", p.Y, p.X)
		}
	}
	if a2l.Points[1].Y > splicer.Points[1].Y {
		t.Fatalf("A2L (%v) beat Splicer (%v) at large τ", a2l.Points[1].Y, splicer.Points[1].Y)
	}
}

// TestFigScaleShape runs the figscale panel's "nodes" axis on a tiny grid.
func TestFigScaleShape(t *testing.T) {
	base := tinySpec()
	base.Workload.Duration = 2
	figure(t, base, "nodes", []float64{40, 80}, MetricThroughput)
}

// TestFigBalanceCostApproxNearOptimal is Fig. 9(a)'s claim: the
// double-greedy approximation stays close to the exact optimum and never
// beats it.
func TestFigBalanceCostApproxNearOptimal(t *testing.T) {
	series, err := BalanceCostSeries(tinySpec(), []float64{0.05, 0.5, 2}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("expected model+optimal, got %d series", len(series))
	}
	gap := 0.0 // mean relative gap over the ω points
	for i, opt := range series[1].Points {
		approx := series[0].Points[i].Y
		if approx < opt.Y-1e-9 {
			t.Fatalf("approximation %v below the optimum %v at ω=%v", approx, opt.Y, opt.X)
		}
		if opt.Y != 0 {
			gap += math.Abs(approx-opt.Y) / math.Abs(opt.Y) / float64(len(series[1].Points))
		}
	}
	if len(series[1].Points) == 0 || gap > 0.5 {
		t.Fatalf("approximation gap %v too large over %d points", gap, len(series[1].Points))
	}
}

// TestFigCostTradeoff is Fig. 9(b)'s shape: one annotated point per ω.
func TestFigCostTradeoff(t *testing.T) {
	points, err := CostTradeoff(tinySpec(), []float64{0.05, 1}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %+v", points)
	}
	for _, p := range points {
		if p.NumHubs < 1 || p.MgmtCost < 0 || p.SyncCost < 0 {
			t.Fatalf("bad tradeoff point %+v", p)
		}
	}
	if tab := TradeoffTable("fig9b", points); len(tab.Rows) != 2 {
		t.Fatalf("tradeoff table has %d rows, want 2", len(tab.Rows))
	}
}

// TestFigHubCountMonotone is Fig. 9(c/d)'s shape: management-cost-dominated
// placement (small ω) keeps at least as many hubs as sync-dominated (large
// ω), and never none.
func TestFigHubCountMonotone(t *testing.T) {
	s, err := HubCount(tinySpec(), []float64{0.01, 5.12}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points: %v", s.Points)
	}
	if s.Points[0].Y < s.Points[1].Y {
		t.Fatalf("hub count not monotone: %v", s.Points)
	}
	if s.Points[1].Y < 1 {
		t.Fatal("placement must keep at least one hub")
	}
}

// TestFigDelayOverhead is Fig. 9(e/f)'s claim: with PCHs the average delay
// is well below source routing's.
func TestFigDelayOverhead(t *testing.T) {
	points, err := DelayOverhead(tinySpec(), []float64{0.05, 1}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var withPCH, without []DelayOverheadPoint
	for _, p := range points {
		if p.WithPCH {
			withPCH = append(withPCH, p)
		} else {
			without = append(without, p)
		}
	}
	if len(withPCH) != 2 || len(without) != 1 {
		t.Fatalf("points: %+v", points)
	}
	for _, p := range withPCH {
		if p.DelayMs <= 0 || p.DelayMs >= without[0].DelayMs {
			t.Fatalf("PCH delay %v not in (0, source-routing delay %v)", p.DelayMs, without[0].DelayMs)
		}
	}
	if tab := DelayOverheadTable("fig9e", points); len(tab.Rows) != 3 {
		t.Fatalf("delay-overhead table has %d rows, want 3", len(tab.Rows))
	}
}

// TestFigChurn is the churn panel's shape: the six schemes plus
// Splicer(online), one TSR in [0, 1] per churn rate.
func TestFigChurn(t *testing.T) {
	rates := []float64{0, 2}
	tsr, delay, err := RunChurnPanel(tinyChurnSpec(), rates, ChurnSchemes(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(ChurnSchemes()) + 1
	if len(tsr) != want || len(delay) != want {
		t.Fatalf("series = %d/%d, want %d", len(tsr), len(delay), want)
	}
	for _, s := range tsr {
		if len(s.Points) != len(rates) {
			t.Fatalf("series %q has %d points, want %d", s.Name, len(s.Points), len(rates))
		}
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 1 {
				t.Fatalf("series %q TSR %v out of range at x=%v", s.Name, p.Y, p.X)
			}
		}
	}
	if last := tsr[len(tsr)-1].Name; last != OnlineLabel {
		t.Fatalf("last series = %q, want %q", last, OnlineLabel)
	}
	if tab := PanelTable("churn", "churn_rate", tsr, delay); len(tab.Rows) != len(rates) || len(tab.Header) != 1+2*want {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Header))
	}
}

func TestTableIStatic(t *testing.T) {
	tab := TableI()
	if len(tab.Rows) != 6 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "✓" { // the Splicer column
			t.Fatalf("Splicer missing property %q", row[0])
		}
	}
	if !strings.Contains(tab.Markdown(), "Optimal hub placement") {
		t.Fatal("markdown render broken")
	}
	if !strings.Contains(tab.CSV(), "Deadlock-free routing") {
		t.Fatal("csv render broken")
	}
}

// TestTableIIReduced is Table II's shape at small scale: five paths beat
// one.
func TestTableIIReduced(t *testing.T) {
	base := tinySpec()
	rows, err := RoutingChoices(base, base, ChoicesOptions{
		PathTypes:   []routing.PathType{routing.EDW, routing.KSP},
		PathNumbers: []int{1, 5},
		Schedulers:  []string{"LIFO", "FIFO"},
		SkipLarge:   true,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows: %d", len(rows))
	}
	byChoice := map[string]TableIIRow{}
	for _, r := range rows {
		if r.Small < 0 || r.Small > 1 {
			t.Fatalf("TSR out of range: %+v", r)
		}
		byChoice[r.Group+"/"+r.Choice] = r
	}
	if k5, k1 := byChoice["Path Number/5"].Small, byChoice["Path Number/1"].Small; k5 < k1 {
		t.Fatalf("k=5 (%v) worse than k=1 (%v)", k5, k1)
	}
	if tab := TableIITable(rows); len(tab.Rows) != 6 {
		t.Fatalf("table has %d rows, want 6", len(tab.Rows))
	}
}

func TestSeriesTable(t *testing.T) {
	tab := SeriesTable("t", "x", []Series{
		{Name: "a", Points: []Point{{X: 1, Y: 0.5}, {X: 2, Y: 0.6}}},
		{Name: "b", Points: []Point{{X: 1, Y: 0.7}, {X: 2, Y: 0.8}}},
	})
	if len(tab.Rows) != 2 || tab.Header[1] != "a" || tab.Header[2] != "b" {
		t.Fatalf("table: %+v", tab)
	}
}

// TestRunSchemeRoutingOverride runs one cell with a routing override.
func TestRunSchemeRoutingOverride(t *testing.T) {
	spec := tinySpec()
	spec.Routing.NumPaths = 2
	res, err := spec.RunScheme(pcn.SchemeSplicer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("no transactions")
	}
}

// workerInvariant runs one multi-seed sweep on one worker, all cores and
// eight workers, and fails unless all three emit byte-identical output.
func workerInvariant(t *testing.T, run func(opts RunOptions) string) {
	t.Helper()
	serial := run(RunOptions{SeedCount: 2, Workers: 1})
	for _, workers := range []int{-1, 8} {
		if got := run(RunOptions{SeedCount: 2, Workers: workers}); got != serial {
			t.Fatalf("%d-worker output diverged from serial:\nserial:\n%s\ngot:\n%s", workers, serial, got)
		}
	}
}

// TestFigureSweepWorkerInvariance: a figure sweep replicated over two seeds
// is identical on any worker count.
func TestFigureSweepWorkerInvariance(t *testing.T) {
	fig := tinySpec()
	fig.Workload.Duration = 1.5
	workerInvariant(t, func(opts RunOptions) string {
		series, err := RunFigure(fig, Axis{Param: "value_scale", Values: []float64{1, 4}},
			DefaultSchemes(), MetricTSR, opts)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", series)
	})
}

// TestTableIIWorkerInvariance: the routing-choice study replicated over two
// seeds is identical on any worker count.
func TestTableIIWorkerInvariance(t *testing.T) {
	fig := tinySpec()
	fig.Workload.Duration = 1.5
	workerInvariant(t, func(opts RunOptions) string {
		rows, err := RoutingChoices(fig, fig, ChoicesOptions{
			PathTypes: []routing.PathType{routing.EDW}, PathNumbers: []int{1, 5},
			Schedulers: []string{"LIFO"}, SkipLarge: true,
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", rows)
	})
}

// TestFigChurnWorkerInvariance: the churn panel replicated over two seeds is
// identical on any worker count.
func TestFigChurnWorkerInvariance(t *testing.T) {
	churn := tinyChurnSpec() // seed 4: SeedCount 2 runs seeds 4 and 5
	churn.Workload.Duration = 2
	workerInvariant(t, func(opts RunOptions) string {
		tsr, delay, err := RunChurnPanel(churn, []float64{2}, ChurnSchemes(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %+v", tsr, delay)
	})
}

// TestTopologyErrorsPropagate: an unbuildable topology surfaces through
// every runner instead of an empty or partial result.
func TestTopologyErrorsPropagate(t *testing.T) {
	bad := tinySpec()
	bad.Topology.Degree = 7 // Watts-Strogatz requires an even degree
	wantTopology := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "topology") {
			t.Fatalf("%s: err = %v, want a topology error", what, err)
		}
	}
	_, _, err := bad.Build()
	wantTopology("Build", err)
	_, err = RunFigure(bad, Axis{Param: "channel_scale", Values: []float64{1}}, DefaultSchemes(), MetricTSR, RunOptions{})
	wantTopology("RunFigure", err)
	_, err = BalanceCostSeries(bad, []float64{0.05}, RunOptions{})
	wantTopology("BalanceCostSeries", err)
	_, err = DelayOverhead(bad, []float64{0.05}, RunOptions{})
	wantTopology("DelayOverhead", err)
	_, err = RoutingChoices(bad, bad, ChoicesOptions{PathNumbers: []int{3}, Schedulers: []string{"LIFO"}, SkipLarge: true}, RunOptions{})
	wantTopology("RoutingChoices", err)
	badChurn := tinyChurnSpec()
	badChurn.Topology.Degree = 7
	_, _, err = RunChurnPanel(badChurn, []float64{0}, ChurnSchemes(), RunOptions{})
	wantTopology("RunChurnPanel", err)
}

// TestWorkloadErrorsPropagate: a workload that generates an empty trace
// surfaces through the build, a figure sweep and a single run.
func TestWorkloadErrorsPropagate(t *testing.T) {
	bad := tinySpec()
	bad.Workload.Rate = 0.0001
	bad.Workload.Duration = 0.001
	if _, _, err := bad.Build(); err == nil || !strings.Contains(err.Error(), "workload") {
		t.Fatalf("Build: err = %v, want a workload error", err)
	}
	if _, err := RunFigure(bad, Axis{Param: "tau_ms", Values: []float64{200}}, DefaultSchemes(), MetricTSR, RunOptions{}); err == nil {
		t.Fatal("RunFigure swallowed a workload error")
	}
	if _, err := bad.RunScheme(pcn.SchemeShortestPath); err == nil {
		t.Fatal("RunScheme swallowed a workload error")
	}
}
