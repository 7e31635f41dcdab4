// Package benchsuite is the tracked benchmark suite behind cmd/bench: a
// fixed set of named benchmark bodies runnable through testing.Benchmark,
// so the perf trajectory (BENCH_*.json) can be produced by a plain binary —
// no `go test` invocation, stable names, machine-readable results.
//
// The sim-core entries are marked Core: their allocs/op are input-size
// independent (zero after the pooled-event-queue work), which makes them
// meaningful regression gates — CI fails when a checked-in pin regresses by
// more than the tolerance. The figure-level entries track end-to-end
// wall-clock and are recorded but not gated (they scale with the scenario).
package benchsuite

import (
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"

	splicer "github.com/splicer-pcn/splicer"
	"github.com/splicer-pcn/splicer/internal/experiments"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/scenario"
	"github.com/splicer-pcn/splicer/internal/sim"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// Benchmark is one tracked benchmark.
type Benchmark struct {
	Name string
	// Core marks sim-core/path-core microbenchmarks whose allocs/op are
	// deterministic for the fixed input — the CI allocs regression gate
	// compares only these against the checked-in pins.
	Core bool
	F    func(b *testing.B)
}

// Result is one benchmark outcome, as serialized into BENCH_*.json.
type Result struct {
	Name        string  `json:"name"`
	Core        bool    `json:"core"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the BENCH_*.json document.
type Report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go"`
	NumCPU     int      `json:"num_cpu"`
	Short      bool     `json:"short"`
	DurationMS int64    `json:"duration_ms"`
	Results    []Result `json:"benchmarks"`
	// Serve holds serving-layer load-generator outcomes (cmd/bench -loadgen);
	// wall-clock throughput numbers, recorded but never pin-gated.
	Serve []ServeResult `json:"serve,omitempty"`
}

// Suite returns the tracked benchmarks. short trims the figure-level
// scenario (CI budget); the Core microbenchmarks are identical in both
// modes so pins stay comparable.
func Suite(short bool) []Benchmark {
	return []Benchmark{
		{Name: "sim_core/engine_schedule_run", Core: true, F: benchEngineScheduleRun},
		{Name: "sim_core/engine_cancel_churn", Core: true, F: benchEngineCancelChurn},
		{Name: "sim_core/engine_nested_timers", Core: true, F: benchEngineNestedTimers},
		{Name: "sim_core/metrics_hot", Core: true, F: benchMetricsHot},
		{Name: "path_core/unit_shortest_2000", Core: true, F: benchUnitShortest},
		{Name: "path_core/ksp_unit_k3_2000", Core: true, F: benchKSPUnit},
		{Name: "path_core/edw_k5_2000", Core: true, F: benchEDW},
		{Name: "path_core/unit_shortest_10000", Core: true, F: benchUnitShortest10k},
		{Name: "path_core/label_query_10000", Core: true, F: benchLabelQuery10k},
		{Name: "path_core/label_build_10000", Core: false, F: benchLabelBuild10k},
		{Name: "reliability/store_observe", Core: true, F: benchStoreObserve},
		{Name: "reliability/penalty_overlay_sp_2000", Core: true, F: benchPenaltyOverlaySP},
		{Name: "figures/fig8d_throughput_large", Core: false, F: figBench(short)},
		{Name: "figures/fig8d_throughput_large_w1", Core: false, F: figSpeculationBench(short, 1)},
		{Name: "figures/fig8d_throughput_large_w4", Core: false, F: figSpeculationBench(short, 4)},
		{Name: "figures/figscale_100k", Core: false, F: figscale100kBench(short)},
		{Name: "figures/figscale_100k_w4", Core: false, F: figscale100kParallelBench(short)},
	}
}

// Run executes the suite (optionally filtered by a name regexp) and
// assembles the report.
func Run(short bool, filter string) (Report, error) {
	var re *regexp.Regexp
	if filter != "" {
		var err error
		re, err = regexp.Compile(filter)
		if err != nil {
			return Report{}, fmt.Errorf("benchsuite: bad filter: %w", err)
		}
	}
	rep := Report{
		Schema:    "splicer-bench/v1",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Short:     short,
	}
	begin := time.Now()
	for _, bm := range Suite(short) {
		if re != nil && !re.MatchString(bm.Name) {
			continue
		}
		if !bm.Core {
			// Figure-level benchmarks take >1s per op, so testing.Benchmark
			// settles at N=1 — run one discarded warmup iteration so the
			// recorded number is not a cold-cache single shot.
			testing.Benchmark(bm.F)
		}
		r := testing.Benchmark(bm.F)
		rep.Results = append(rep.Results, Result{
			Name:        bm.Name,
			Core:        bm.Core,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	rep.DurationMS = time.Since(begin).Milliseconds()
	return rep, nil
}

func benchEngineScheduleRun(b *testing.B) {
	e := sim.NewEngine()
	action := func() {}
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		t := e.Now()
		for i := 0; i < batch && n < b.N; i++ {
			if _, err := e.Schedule(t+float64(i%7)+1, i%3, action); err != nil {
				b.Fatal(err)
			}
			n++
		}
		e.Run(t + 16)
	}
}

func benchEngineCancelChurn(b *testing.B) {
	e := sim.NewEngine()
	action := func() {}
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		t := e.Now()
		for i := 0; i < batch && n < b.N; i++ {
			ev, err := e.Schedule(t+100, 0, action)
			if err != nil {
				b.Fatal(err)
			}
			if i%8 != 0 {
				ev.Cancel()
			}
			n++
		}
		e.Run(t + 200)
	}
}

func benchEngineNestedTimers(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			if _, err := e.After(1, 0, tick); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := e.Schedule(1, 0, tick); err != nil {
		b.Fatal(err)
	}
	e.Run(float64(b.N) + 2)
}

func benchMetricsHot(b *testing.B) {
	m := sim.NewMetrics()
	tuCompleted := m.CounterHandle("tu_completed")
	fees := m.CounterHandle("fees")
	queueDelay := m.SampleHandle("queue_delay")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AddHandle(tuCompleted, 1)
		m.AddHandle(fees, 0.01)
		m.ObserveHandle(queueDelay, float64(i%100)*0.001)
	}
}

func benchGraph(b *testing.B, seed uint64, nodes int) *graph.Graph {
	b.Helper()
	g, err := splicer.BuildNetwork(splicer.NetworkSpec{Seed: seed, Nodes: nodes})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchUnitShortest(b *testing.B) {
	g := benchGraph(b, 6, 2000)
	pf := graph.NewPathFinder(g)
	n := g.NumNodes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := graph.NodeID(i % n)
		dst := graph.NodeID((i + n/2) % n)
		if _, ok := pf.UnitShortestPath(src, dst); !ok {
			b.Fatalf("%d->%d unreachable", src, dst)
		}
	}
}

func benchKSPUnit(b *testing.B) {
	g := benchGraph(b, 8, 2000)
	pf := graph.NewPathFinder(g)
	n := g.NumNodes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := graph.NodeID(i % n)
		dst := graph.NodeID((i + n/2) % n)
		if paths := pf.KShortestPathsUnit(src, dst, 3); len(paths) == 0 {
			b.Fatalf("%d->%d no paths", src, dst)
		}
	}
}

func benchEDW(b *testing.B) {
	g := benchGraph(b, 9, 2000)
	pf := graph.NewPathFinder(g)
	n := g.NumNodes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := graph.NodeID(i % n)
		dst := graph.NodeID((i + n/2) % n)
		if paths := pf.EdgeDisjointWidestPaths(src, dst, 5); len(paths) == 0 {
			b.Fatalf("%d->%d no paths", src, dst)
		}
	}
}

// labelBenchGraph builds the shared 10k-node scale-free graph plus the hub
// roots used by the unit_shortest_10000 / label_query_10000 pair. Both
// entries run the identical hub-rooted query stream, so their ns/op ratio is
// the precomputation speedup, not a workload difference.
const (
	labelBenchNodes = 10000
	labelBenchHubs  = 16
)

func labelBenchGraph(b *testing.B) (*graph.Graph, *graph.PathFinder, []graph.NodeID) {
	b.Helper()
	src := rng.New(10)
	sizes := workload.NewChannelSizeDist(src.Split(1), 1)
	g, err := topology.BarabasiAlbert(src.Split(2), labelBenchNodes, 3, sizes.CapacityFunc())
	if err != nil {
		b.Fatal(err)
	}
	return g, graph.NewPathFinder(g), topology.TopDegreeNodes(g, labelBenchHubs)
}

func labelBenchQuery(i, n int, hubs []graph.NodeID) (graph.NodeID, graph.NodeID) {
	return hubs[i%len(hubs)], graph.NodeID((i*7919 + n/2) % n)
}

func benchUnitShortest10k(b *testing.B) {
	g, pf, hubs := labelBenchGraph(b)
	n := g.NumNodes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, dst := labelBenchQuery(i, n, hubs)
		if _, ok := pf.UnitShortestPath(src, dst); !ok {
			b.Fatalf("%d->%d unreachable", src, dst)
		}
	}
}

func benchLabelQuery10k(b *testing.B) {
	g, pf, hubs := labelBenchGraph(b)
	n := g.NumNodes()
	hl := graph.NewHubLabels(g, pf, hubs)
	// Warm every hub tree (builds are measured by label_build_10000) and
	// spot-check byte-identity against the finder on the first query window.
	for i := 0; i < 64; i++ {
		src, dst := labelBenchQuery(i, n, hubs)
		lp, lok := hl.UnitShortestPath(src, dst)
		pp, pok := pf.UnitShortestPath(src, dst)
		if lok != pok || !reflect.DeepEqual(lp, pp) {
			b.Fatalf("label answer for %d->%d diverged from finder", src, dst)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, dst := labelBenchQuery(i, n, hubs)
		if _, ok := hl.UnitShortestPath(src, dst); !ok {
			b.Fatalf("%d->%d unreachable", src, dst)
		}
	}
	b.StopTimer()
	if st := hl.Stats(); st.Fallbacks != 0 {
		b.Fatalf("hub-rooted stream hit %d fallbacks", st.Fallbacks)
	}
}

func benchLabelBuild10k(b *testing.B) {
	g, pf, hubs := labelBenchGraph(b)
	probe := graph.NodeID(g.NumNodes() / 2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hl := graph.NewHubLabels(g, pf, hubs)
		for _, h := range hubs {
			// One query per hub forces every lazy tree build.
			if _, ok := hl.UnitShortestPath(h, probe); !ok {
				b.Fatalf("%d->%d unreachable", h, probe)
			}
		}
	}
}

// figBench mirrors the tracked BenchmarkFig8dThroughputLarge: the large
// scenario at one τ point. Short mode trims the trace for CI budget — its
// numbers are NOT comparable to a full run (the JSON records the mode).
func figBench(short bool) func(b *testing.B) {
	return func(b *testing.B) {
		old := experiments.TauSweepMs
		experiments.TauSweepMs = []float64{400}
		defer func() { experiments.TauSweepMs = old }()
		s := experiments.LargeScale()
		s.Duration = 2
		s.Rate = 150
		if short {
			s.Duration = 1
			s.Rate = 60
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			series, err := experiments.FigThroughput(s)
			if err != nil {
				b.Fatal(err)
			}
			if len(series) == 0 {
				b.Fatal("no series")
			}
		}
	}
}

// figSpeculationBench is the intra-run parallelism scaling pair: the same
// large scenario and τ point as fig8d_throughput_large, run through the
// declarative engine so the spec can pin routing.parallelism. w1 pins the
// serial path (0 would mean "the spare cores" and arm the pool on any
// multi-core runner, so a baseline has to say 1); wN pins N planning
// workers. Outputs are byte-identical across the pair by the golden
// conformance contract — the entries exist to track the wall-clock ratio
// next to the host's num_cpu field in the report (a 1-CPU host pins the
// ratio near 1x: prefetching needs spare cores to run ahead of the
// committer). The unsuffixed fig8d_throughput_large runs at the default
// width.
func figSpeculationBench(short bool, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		spec := scenario.LargeSpec()
		spec.Workload.Duration = 2
		spec.Workload.Rate = 150
		if short {
			spec.Workload.Duration = 1
			spec.Workload.Rate = 60
		}
		spec.Routing.UpdateTauMs = 400
		spec.Routing.Parallelism = workers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			table, err := scenario.SchemeTable(spec, []string{"Splicer"}, scenario.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if table.CSV() == "" {
				b.Fatal("empty table")
			}
		}
	}
}

// figscale100kBench runs the XL scale series' largest cell end-to-end: the
// 100k-node scale-free graph under the hub-labels routing override, one
// scheme. Node count stays at 100k in short mode (the point is the scale);
// short trims only the workload.
func figscale100kBench(short bool) func(b *testing.B) {
	return figscale100k(short, 0)
}

// figscale100kParallelBench is the scaling pair's pooled side: the 100k
// cell requests 4 planning workers, and under its hub-labels routing
// override Splicer's pool arms for the label-free part of each route — the
// hub-to-hub transit legs — while the label-served access legs stay on the
// committer. The tracked ratio against figscale_100k is that part's share
// of the cell, read against the report's num_cpu.
func figscale100kParallelBench(short bool) func(b *testing.B) {
	return figscale100k(short, 4)
}

func figscale100k(short bool, parallelism int) func(b *testing.B) {
	return func(b *testing.B) {
		spec := scenario.XLScaleSpec()
		spec.Topology.Nodes = 100000
		spec.Routing.Parallelism = parallelism
		if short {
			spec.Workload.Rate = 30
			spec.Workload.Duration = 1
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			table, err := scenario.SchemeTable(spec, []string{"Splicer"}, scenario.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if table.CSV() == "" {
				b.Fatal("empty table")
			}
		}
	}
}
