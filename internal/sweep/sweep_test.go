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

// testCell is a small self-contained simulation cell.
func testCell(scheme pcn.Scheme, seed uint64, x float64) Cell {
	return testCellWith(scheme, seed, x, nil)
}

// testCellWith is testCell with its pcn.Config passed through mutate (when
// set) before the cell's share of the planners is applied, the way a spec's
// routing block would set it.
func testCellWith(scheme pcn.Scheme, seed uint64, x float64, mutate func(*pcn.Config)) Cell {
	return Cell{
		Name: fmt.Sprintf("%v seed=%d value_scale=%g", scheme, seed, x),
		Run: func(planners int) (pcn.Result, error) {
			src := rng.New(seed)
			g, err := topology.WattsStrogatz(src.Split(1), 30, 4, 0.2, func() (float64, float64) { return 200, 200 })
			if err != nil {
				return pcn.Result{}, err
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
				return pcn.Result{}, err
			}
			cfg := pcn.NewConfig(scheme)
			cfg.NumHubCandidates = 6
			if mutate != nil {
				mutate(&cfg)
			}
			if cfg.Parallelism == 0 {
				cfg.Parallelism = planners
			}
			n, err := pcn.NewNetwork(g, cfg)
			if err != nil {
				return pcn.Result{}, err
			}
			return n.Run(trace)
		},
	}
}

// testGrid is two x values × two schemes with three seeds each, seeds
// innermost: four groups of three contiguous cells.
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
// (the Cell's Run closure is a pointer and must not participate).
func renderResults(results []CellResult) string {
	out := ""
	for _, r := range results {
		out += fmt.Sprintf("%s %+v err=%v\n", r.Cell.Name, r.Result, r.Err)
	}
	return out
}

// summarize summarizes a grid's groups of three contiguous seeds.
func summarize(results []CellResult) []Summary {
	var out []Summary
	for i := 0; i < len(results); i += 3 {
		out = append(out, Summarize(results[i:i+3]))
	}
	return out
}

// render canonicalizes summaries for byte-level comparison.
func render(v interface{}) string { return fmt.Sprintf("%+v", v) }

// TestDeterministicAcrossWorkerCounts: the same grid must produce
// byte-identical per-cell results and summaries for any worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := Run(testGrid(), 1)
	if err := FirstErr(ref); err != nil {
		t.Fatal(err)
	}
	refResults, refSummaries := renderResults(ref), render(summarize(ref))
	for _, workers := range []int{2, 4, 0} {
		got := Run(testGrid(), workers)
		if r := renderResults(got); r != refResults {
			t.Fatalf("workers=%d: per-cell results diverged from workers=1", workers)
		}
		if s := render(summarize(got)); s != refSummaries {
			t.Fatalf("workers=%d: summaries diverged from workers=1", workers)
		}
	}
}

// TestAggregateGroups: each group of 3 seeds summarizes to N=3 stats, and a
// group's summary is its seeds' results folded in order — the first group
// matches a direct fold of cells 0–2 re-run on their own.
func TestAggregateGroups(t *testing.T) {
	results := Run(testGrid(), 0)
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	sums := summarize(results)
	if len(sums) != 4 {
		t.Fatalf("got %d groups, want 4", len(sums))
	}
	for i, s := range sums {
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
	var tsr []float64
	for _, r := range results[:3] {
		tsr = append(tsr, r.Result.TSR)
	}
	if want := newStats(tsr); sums[0].TSR != want {
		t.Fatalf("group 0 TSR = %+v, want %+v", sums[0].TSR, want)
	}
	// A reason one seed never recorded contributes a zero sample for it.
	pad := Summarize([]CellResult{
		{Result: pcn.Result{FailureReasons: map[string]int{"no_funds": 4}}},
		{Result: pcn.Result{}},
		{Err: fmt.Errorf("boom")},
	})
	if r := pad.FailureReasons["no_funds"]; r.N != 2 || r.Mean != 2 || pad.Failed != 1 {
		t.Fatalf("padded reason stats = %+v, failed %d; want N=2 Mean=2, failed 1", r, pad.Failed)
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

// TestErrorPropagation: a failing cell surfaces through FirstErr, named, and
// is counted (not folded) by Summarize.
func TestErrorPropagation(t *testing.T) {
	bad := Cell{Name: "Splicer seed=9",
		Run: func(int) (pcn.Result, error) { return pcn.Result{}, fmt.Errorf("boom") }}
	cells := []Cell{testCell(pcn.SchemeSplicer, 3, 1), bad}
	results := Run(cells, 2)
	if err := FirstErr(results); err == nil || !strings.Contains(err.Error(), "Splicer seed=9: boom") {
		t.Fatalf("FirstErr = %v, want the failing cell named", err)
	}
	if s := Summarize(results); s.Seeds != 1 || s.Failed != 1 {
		t.Fatalf("Seeds=%d Failed=%d, want 1/1", s.Seeds, s.Failed)
	}
	if runCell(Cell{}, 0).Err == nil {
		t.Fatal("a lone cell without a Run hook was accepted")
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
		if i == poisoned {
			cells[i] = Cell{Name: "poisoned", Run: func(int) (pcn.Result, error) { panic("poisoned cell") }}
			continue
		}
		cells[i] = Cell{Run: func(int) (pcn.Result, error) { return pcn.Result{Generated: i}, nil }}
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

// TestBuildPanicRecovered covers a lone cell (runCell, not the pool) whose
// hook panics while it builds its inputs: the panic value comes back as the
// cell's error.
func TestBuildPanicRecovered(t *testing.T) {
	r := runCell(Cell{Run: func(int) (pcn.Result, error) { panic(fmt.Errorf("bad build")) }}, 0)
	if r.Err == nil || !strings.Contains(r.Err.Error(), "bad build") {
		t.Fatalf("build panic not recovered into Err: %v", r.Err)
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
	g := graph.New(3)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}} {
		if _, err := g.AddEdge(e[0], e[1], 1, 1); err != nil {
			t.Fatal(err)
		}
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

	// probe is a cell whose policy hands back the network the sweep built
	// for it, so the test reads the pool width that network got.
	probe := func(net **pcn.Network, mutate func(*pcn.Config)) Cell {
		policy := newPolicy(t, pcn.SchemeSpider)
		return testCellWith(pcn.SchemeSpider, 3, 1, func(cfg *pcn.Config) {
			cfg.Policy = spyPolicy{policy, net}
			if mutate != nil {
				mutate(cfg)
			}
		})
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
	lone := runCell(testCell(pcn.SchemeSplicer, 3, 1), 0)
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
