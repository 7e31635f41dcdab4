package sweep

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// testCell builds a small self-contained simulation cell.
func testCell(scheme pcn.Scheme, seed uint64, x float64) Cell {
	return Cell{
		Scheme: scheme,
		Seed:   seed,
		Axis:   "value_scale",
		X:      x,
		Build: func() (*graph.Graph, []workload.Tx, pcn.Config, error) {
			src := rng.New(seed)
			g, err := topology.WattsStrogatz(src.Split(1), 30, 4, 0.2, func() (float64, float64) { return 200, 200 })
			if err != nil {
				return nil, nil, pcn.Config{}, err
			}
			clients := make([]graph.NodeID, g.NumNodes())
			for i := range clients {
				clients[i] = graph.NodeID(i)
			}
			trace, err := workload.Generate(src.Split(2), workload.Config{
				Clients: clients, Rate: 30, Duration: 1.5, Timeout: 3,
				ZipfSkew: 0.8, ValueScale: x, CirculationFraction: 0.2,
			})
			if err != nil {
				return nil, nil, pcn.Config{}, err
			}
			cfg := pcn.NewConfig(scheme)
			cfg.NumHubCandidates = 6
			return g, trace, cfg, nil
		},
	}
}

func testGrid() []Cell {
	var cells []Cell
	for _, x := range []float64{1, 2} {
		for _, scheme := range []pcn.Scheme{pcn.SchemeSplicer, pcn.SchemeShortestPath} {
			for _, seed := range []uint64{3, 4, 5} {
				cells = append(cells, testCell(scheme, seed, x))
			}
		}
	}
	return cells
}

// renderResults canonicalizes per-cell outcomes for byte-level comparison
// (the Cell's Build closure is a pointer and must not participate).
func renderResults(results []CellResult) string {
	out := ""
	for _, r := range results {
		out += fmt.Sprintf("%v/%d/%s/%g/%s %+v err=%v\n",
			r.Cell.Scheme, r.Cell.Seed, r.Cell.Axis, r.Cell.X, r.Cell.Label, r.Result, r.Err)
	}
	return out
}

// render canonicalizes summaries for byte-level comparison.
func render(v interface{}) string { return fmt.Sprintf("%+v", v) }

// TestDeterministicAcrossWorkerCounts: the same grid must produce
// byte-identical per-cell results and aggregate stats for any worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := Run(testGrid(), 1)
	if err := FirstErr(ref); err != nil {
		t.Fatal(err)
	}
	refResults, refSummaries := renderResults(ref), render(Aggregate(ref))
	for _, workers := range []int{2, 4, 0} {
		got := Run(testGrid(), workers)
		if r := renderResults(got); r != refResults {
			t.Fatalf("workers=%d: per-cell results diverged from workers=1", workers)
		}
		if s := render(Aggregate(got)); s != refSummaries {
			t.Fatalf("workers=%d: aggregate summaries diverged from workers=1", workers)
		}
	}
}

// TestAggregateGroups: 3 seeds per (scheme, x) group → 4 groups of N=3, in
// first-appearance order.
func TestAggregateGroups(t *testing.T) {
	results := Run(testGrid(), 0)
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	sums := Aggregate(results)
	if len(sums) != 4 {
		t.Fatalf("got %d groups, want 4", len(sums))
	}
	want := []struct {
		scheme pcn.Scheme
		x      float64
	}{
		{pcn.SchemeSplicer, 1}, {pcn.SchemeShortestPath, 1},
		{pcn.SchemeSplicer, 2}, {pcn.SchemeShortestPath, 2},
	}
	for i, s := range sums {
		if s.Scheme != want[i].scheme || s.X != want[i].x {
			t.Fatalf("group %d = (%v, %g), want (%v, %g)", i, s.Scheme, s.X, want[i].scheme, want[i].x)
		}
		if s.Seeds != 3 || s.Failed != 0 {
			t.Fatalf("group %d: Seeds=%d Failed=%d, want 3/0", i, s.Seeds, s.Failed)
		}
		if s.TSR.N != 3 || s.TSR.Mean < 0 || s.TSR.Mean > 1 {
			t.Fatalf("group %d: bad TSR stats %+v", i, s.TSR)
		}
		if s.TSR.Std > 0 && s.TSR.CI95 <= 0 {
			t.Fatalf("group %d: Std=%g but CI95=%g", i, s.TSR.Std, s.TSR.CI95)
		}
	}
}

// TestStatsMath checks mean/stddev/CI against hand-computed values and the
// NaN-exclusion rule.
func TestStatsMath(t *testing.T) {
	s := newStats([]float64{1, 2, 3, math.NaN()})
	if s.N != 3 || math.Abs(s.Mean-2) > 1e-12 {
		t.Fatalf("stats = %+v, want N=3 Mean=2", s)
	}
	if math.Abs(s.Std-1) > 1e-12 {
		t.Fatalf("Std = %g, want 1", s.Std)
	}
	if wantCI := 1.96 / math.Sqrt(3); math.Abs(s.CI95-wantCI) > 1e-12 {
		t.Fatalf("CI95 = %g, want %g", s.CI95, wantCI)
	}
	if one := newStats([]float64{5}); one.N != 1 || one.Mean != 5 || one.Std != 0 || one.CI95 != 0 {
		t.Fatalf("single-sample stats = %+v", one)
	}
	if empty := newStats([]float64{math.NaN()}); empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Fatalf("all-NaN stats = %+v", empty)
	}
}

// TestErrorPropagation: a failing cell surfaces through FirstErr and is
// counted (not folded) by Aggregate.
func TestErrorPropagation(t *testing.T) {
	bad := Cell{Scheme: pcn.SchemeSplicer, Seed: 9, Axis: "value_scale", X: 1,
		Build: func() (*graph.Graph, []workload.Tx, pcn.Config, error) {
			return nil, nil, pcn.Config{}, fmt.Errorf("boom")
		}}
	cells := []Cell{testCell(pcn.SchemeSplicer, 3, 1), bad}
	results := Run(cells, 2)
	if err := FirstErr(results); err == nil {
		t.Fatal("FirstErr missed the failing cell")
	}
	sums := Aggregate(results)
	if len(sums) != 1 {
		t.Fatalf("got %d groups, want 1 (same key)", len(sums))
	}
	if sums[0].Seeds != 1 || sums[0].Failed != 1 {
		t.Fatalf("Seeds=%d Failed=%d, want 1/1", sums[0].Seeds, sums[0].Failed)
	}
	if RunCell(Cell{}).Err == nil {
		t.Fatal("RunCell accepted a cell without Build")
	}
}

// TestPoisonedCellDoesNotKillSweep pins the panic-recovery contract: one
// cell whose hook panics fails in place — panic value and stack captured in
// its CellResult.Err — while the other 99 cells of the sweep complete
// normally on a parallel pool.
func TestPoisonedCellDoesNotKillSweep(t *testing.T) {
	const total, poisoned = 100, 41
	cells := make([]Cell, total)
	for i := range cells {
		i := i
		if i == poisoned {
			cells[i] = Cell{Scheme: pcn.SchemeSplicer, Seed: uint64(i), Axis: "poison", X: 1,
				Run: func(int) (pcn.Result, error) { panic("poisoned cell") }}
			continue
		}
		cells[i] = Cell{Scheme: pcn.SchemeSplicer, Seed: uint64(i), Axis: "poison", X: 0,
			Run: func(int) (pcn.Result, error) { return pcn.Result{Generated: i}, nil }}
	}
	results := Run(cells, 4)
	for i, r := range results {
		if i == poisoned {
			if r.Err == nil {
				t.Fatal("poisoned cell reported no error")
			}
			msg := r.Err.Error()
			if !strings.Contains(msg, "poisoned cell") {
				t.Fatalf("panic value lost: %v", r.Err)
			}
			if !strings.Contains(msg, "sweep_test.go") {
				t.Fatalf("panic stack lost: %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("healthy cell %d failed: %v", i, r.Err)
		}
		if r.Result.Generated != i {
			t.Fatalf("cell %d result scrambled: %+v", i, r.Result)
		}
	}
	if err := FirstErr(results); err == nil || !strings.Contains(err.Error(), "poisoned cell") {
		t.Fatalf("FirstErr missed the poisoned cell: %v", err)
	}
}

// TestBuildPanicRecovered covers the Build-path panic (NewNetwork and the
// simulation itself run under the same recover).
func TestBuildPanicRecovered(t *testing.T) {
	r := RunCell(Cell{Scheme: pcn.SchemeSplicer, Seed: 1, Axis: "poison", X: 1,
		Build: func() (*graph.Graph, []workload.Tx, pcn.Config, error) { panic(fmt.Errorf("bad build")) }})
	if r.Err == nil || !strings.Contains(r.Err.Error(), "bad build") {
		t.Fatalf("Build panic not recovered into Err: %v", r.Err)
	}
}

// spyPolicy is a registered policy that also records the network it was set
// up on.
type spyPolicy struct {
	pcn.SchemePolicy
	net **pcn.Network
}

func (p spyPolicy) Setup(n *pcn.Network) error {
	*p.net = n
	return p.SchemePolicy.Setup(n)
}

func (p spyPolicy) PrefetchRoutes(n *pcn.Network, tx workload.Tx) {
	p.SchemePolicy.(pcn.RoutePrefetcher).PrefetchRoutes(n, tx)
}

func (p spyPolicy) PrefetchesLabelFree() bool {
	return p.SchemePolicy.(pcn.RoutePrefetcher).PrefetchesLabelFree()
}

// newPolicy returns a fresh instance of a registered policy, which is
// reachable only through a network built with it.
func newPolicy(t *testing.T, scheme pcn.Scheme) pcn.SchemePolicy {
	t.Helper()
	g, err := topology.Star(4, topology.UniformCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	n, err := pcn.NewNetwork(g, pcn.NewConfig(scheme))
	if err != nil {
		t.Fatal(err)
	}
	return n.Policy()
}

// TestRunBudgetsPlanningWorkers pins the one rule that splits the cores
// between sweep workers and each cell's route-planning workers: W sweep
// workers leave a cell max(1, GOMAXPROCS/W) planners. On two cores a
// two-worker sweep therefore runs every cell on the serial path, a
// one-worker sweep (or one too short to fill its workers) arms each cell's
// pool at width 2, a cell that pins its own width keeps it, a hub-labels
// cell follows the same budget (the probe is Spider, whose plans never
// touch the label tier) — and the results are the same bytes throughout.
func TestRunBudgetsPlanningWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	// probe is a Build cell whose policy hands back the network the sweep
	// built for it, so the test reads the pool width that network got.
	probe := func(net **pcn.Network, mutate func(*pcn.Config)) Cell {
		c := testCell(pcn.SchemeSpider, 3, 1)
		build, policy := c.Build, newPolicy(t, pcn.SchemeSpider)
		c.Build = func() (*graph.Graph, []workload.Tx, pcn.Config, error) {
			g, trace, cfg, err := build()
			cfg.Policy = spyPolicy{policy, net}
			if mutate != nil {
				mutate(&cfg)
			}
			return g, trace, cfg, err
		}
		return c
	}
	hubLabels := func(cfg *pcn.Config) { cfg.RoutingOverride = pcn.RoutingHubLabels }
	pinned := func(cfg *pcn.Config) { cfg.Parallelism = 3 }

	for _, tc := range []struct {
		name          string
		cells, sweepW int
		mutate        func(*pcn.Config)
		want          int
	}{
		{"two workers fill two cores", 3, 2, nil, 0},
		{"all cores", 3, 0, nil, 0},
		{"one worker leaves a core spare", 3, 1, nil, 2},
		{"one cell cannot occupy two workers", 1, 2, nil, 2},
		{"hub-labels, serial sweep", 2, 1, hubLabels, 2},
		{"hub-labels, full sweep", 2, 2, hubLabels, 0},
		{"cell pins its own width", 2, 2, pinned, 3},
	} {
		nets := make([]*pcn.Network, tc.cells)
		cells := make([]Cell, tc.cells)
		for i := range cells {
			cells[i] = probe(&nets[i], tc.mutate)
		}
		results := Run(cells, tc.sweepW)
		if err := FirstErr(results); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, n := range nets {
			if got := n.SpeculationStats().Workers; got != tc.want {
				t.Errorf("%s: cell %d planned on %d workers, want %d", tc.name, i, got, tc.want)
			}
		}
	}

	// No width moves a byte.
	serial := Run([]Cell{testCell(pcn.SchemeSplicer, 3, 1), testCell(pcn.SchemeSplicer, 4, 1)}, 2)
	pooled := Run([]Cell{testCell(pcn.SchemeSplicer, 3, 1), testCell(pcn.SchemeSplicer, 4, 1)}, 1)
	lone := RunCell(testCell(pcn.SchemeSplicer, 3, 1))
	if err := FirstErr(append(append(serial, pooled...), lone)); err != nil {
		t.Fatal(err)
	}
	if a, b := renderResults(serial), renderResults(pooled); a != b {
		t.Fatalf("planning width changed a sweep's results:\nserial: %s\npooled: %s", a, b)
	}
	if a, b := fmt.Sprintf("%+v", serial[0].Result), fmt.Sprintf("%+v", lone.Result); a != b {
		t.Fatalf("a lone cell diverged from its sweep twin:\nsweep: %s\nlone:  %s", a, b)
	}
}
