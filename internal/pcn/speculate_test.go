package pcn

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// runWithParallelism runs one scheme over the shared test graph/trace with
// the given planning-worker count and returns the full Result.
func runWithParallelism(t *testing.T, scheme Scheme, workers int) Result {
	t.Helper()
	g, trace := testGraphAndTrace(t, 7, 80, 60, 4)
	cfg := NewConfig(scheme)
	cfg.Parallelism = workers
	return runPlanned(t, g, trace, cfg)
}

// runPlanned runs cfg (an explicit Parallelism) over g and trace, and checks
// what must hold of the planning pool whatever the scheduler did: it is
// staffed exactly when the width is 2 or more and the policy prefetches, it
// was fed every scheduled payment, and every route-cache miss was either
// replayed from the memo or computed on the committer.
func runPlanned(t *testing.T, g *graph.Graph, trace []workload.Tx, cfg Config) Result {
	t.Helper()
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	scheme, st := res.Scheme, n.SpeculationStats()
	want := cfg.Parallelism
	if _, ok := n.Policy().(RoutePrefetcher); !ok || want < 2 {
		want = 0
	}
	if st.Workers != want {
		t.Fatalf("%v at width %d: pool has %d workers, want %d (stats %+v)", scheme, cfg.Parallelism, st.Workers, want, st)
	}
	if want > 0 {
		if st.Enqueued != uint64(len(trace)) {
			t.Fatalf("%v: %d payments scheduled, pool was fed %d", scheme, len(trace), st.Enqueued)
		}
		if st.MemoHits+st.SerialPlans != uint64(res.RouteCacheMisses) {
			t.Fatalf("%v: %d route-cache misses, but %d replayed + %d serial", scheme, res.RouteCacheMisses, st.MemoHits, st.SerialPlans)
		}
		// How far ahead the workers got depends on the scheduler (on a
		// single-CPU host the pool may starve and every plan falls back
		// to the serial path — which is the correctness story under
		// test); log it rather than asserting.
		t.Logf("%v on GOMAXPROCS %d: %d payments, %d route-cache misses, %+v", scheme, runtime.GOMAXPROCS(0), len(trace), res.RouteCacheMisses, st)
	}
	return res
}

// resultsEqual compares Results via their formatted rendering: NaN fields
// (e.g. MeanQueueDelay for schemes without queues) format identically even
// though NaN != NaN, matching the byte-identical-CSV contract the figure
// pipeline actually depends on.
func resultsEqual(a, b Result) bool {
	return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
}

// TestSpeculativePlanningMatchesSerial is the package-level byte-identity
// check: every scheme — the four whose whole Plan prefetches, Flash with its
// mice paths, and Landmark (it owns lazily built tail trees), whose arming
// request must gate off to a no-op — produces an equal Result (including
// the RouteCacheHits/Misses arithmetic that flows into panel CSVs) with 2
// and 4 planning workers as with the pool off. The scenario-level golden
// conformance twin covers the full CSV pipeline; this one localizes a
// divergence to a scheme quickly.
func TestSpeculativePlanningMatchesSerial(t *testing.T) {
	for _, scheme := range []Scheme{SchemeSplicer, SchemeSpider, SchemeFlash, SchemeLandmark, SchemeA2L, SchemeShortestPath} {
		serial := runWithParallelism(t, scheme, 1)
		for _, width := range []int{2, 4} {
			if parallel := runWithParallelism(t, scheme, width); !resultsEqual(serial, parallel) {
				t.Errorf("%v: width-%d run diverged from serial\nserial:   %+v\nparallel: %+v", scheme, width, serial, parallel)
			}
		}
	}
}

// TestParallelismDefaultsToCores pins what Config.Parallelism == 0 means:
// the cores this process may use, so a two-core host plans on two workers
// and a one-core host runs the serial path.
func TestParallelismDefaultsToCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g, _ := testGraphAndTrace(t, 7, 30, 10, 1)
	for _, tc := range []struct{ procs, parallelism, want int }{
		{1, 0, 0}, {2, 0, 2}, {3, 0, 3}, {2, 1, 0}, {1, 4, 4},
	} {
		runtime.GOMAXPROCS(tc.procs)
		cfg := NewConfig(SchemeSpider)
		cfg.Parallelism = tc.parallelism
		n, err := NewNetwork(g.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := n.SpeculationStats().Workers; got != tc.want {
			t.Errorf("GOMAXPROCS %d, Parallelism %d: %d planning workers, want %d", tc.procs, tc.parallelism, got, tc.want)
		}
	}
}

// TestFlashPrefetchesMicePathsOnly pins Flash's side of the prefetch
// contract: a worker warms exactly the key Plan reads for a mouse, and
// nothing for an elephant (which plans on the τ-stale balance view and
// would only burn the spare core).
func TestFlashPrefetchesMicePathsOnly(t *testing.T) {
	g, _ := testGraphAndTrace(t, 7, 30, 10, 1)
	cfg := NewConfig(SchemeFlash)
	cfg.Parallelism = 2
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := n.spec.newWorker()
	w.plan(workload.Tx{ID: 1, Sender: 3, Recipient: 17, Value: cfg.FlashElephantThreshold + 1})
	if len(n.spec.entries) != 0 {
		t.Fatalf("an elephant prefetched %d route computations", len(n.spec.entries))
	}
	w.plan(workload.Tx{ID: 2, Sender: 3, Recipient: 17, Value: cfg.FlashElephantThreshold})
	want := RouteKey{Src: 3, Dst: 17, Type: routing.KSP, K: cfg.FlashMicePaths}
	if e := n.spec.entries[want]; len(n.spec.entries) != 1 || e == nil || len(e.paths) == 0 {
		t.Fatalf("a mouse prefetched %v, want one entry under %+v", n.spec.entries, want)
	}
	if n.Routes().Hits()+n.Routes().Misses() != 0 {
		t.Fatal("prefetching moved the live route-cache counters")
	}
}

// TestSpeculationStatsOnLargeCells runs the two cells that dominate the
// fig8d_large benchmark workload (its geometry: 3000 nodes, 150 tx/s for
// 2 s, τ = 400 ms) on two planning workers: runPlanned asserts the counters'
// scheduler-independent identities on cells where planning is the run, and
// -v shows how many route-cache misses the workers had ready (MemoHits)
// against how many the committer computed itself (SerialPlans). DESIGN.md
// quotes this output.
func TestSpeculationStatsOnLargeCells(t *testing.T) {
	if testing.Short() {
		t.Skip("two 3000-node cells")
	}
	for _, scheme := range []Scheme{SchemeSpider, SchemeFlash} {
		g, trace := testGraphAndTrace(t, 2, 3000, 150, 2)
		cfg := NewConfig(scheme)
		cfg.UpdateTau = 0.4
		cfg.Parallelism = 2
		runPlanned(t, g, trace, cfg)
	}
}

// TestSpeculationGatesOffUnderHubLabels pins the label-tier exclusion: the
// tier's Served/Fallbacks/Builds counters flow into Result, so speculative
// planning must never arm alongside RoutingHubLabels.
func TestSpeculationGatesOffUnderHubLabels(t *testing.T) {
	g, trace := testGraphAndTrace(t, 7, 80, 40, 3)
	cfg := NewConfig(SchemeSplicer)
	cfg.RoutingOverride = RoutingHubLabels
	cfg.Parallelism = 4
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(trace); err != nil {
		t.Fatal(err)
	}
	if st := n.SpeculationStats(); st.Workers != 0 {
		t.Fatalf("speculation armed under hub-label routing: %+v", st)
	}
}

// TestSpeculationQuiescesForMutations drives mid-run channel mutations (the
// dynamics entry points) against an armed network and checks the run still
// matches serial byte-for-byte — the pause/invalidate path, not just the
// static fast path — for a policy that prefetches whole plans and for
// Flash, whose workers read the graph while its committer plans elephants.
func TestSpeculationQuiescesForMutations(t *testing.T) {
	for _, scheme := range []Scheme{SchemeSplicer, SchemeFlash} {
		testSpeculationQuiesces(t, scheme)
	}
}

func testSpeculationQuiesces(t *testing.T, scheme Scheme) {
	run := func(workers int) Result {
		g, trace := testGraphAndTrace(t, 13, 60, 50, 4)
		cfg := NewConfig(scheme)
		cfg.Parallelism = workers
		n, err := NewNetwork(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		horizon := trace[len(trace)-1].Deadline + 1
		if err := n.BeginRun(horizon); err != nil {
			t.Fatal(err)
		}
		for i := range trace {
			if err := n.ScheduleArrival(trace[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Interleave topology churn with the payment stream: close a
		// channel early, top one up mid-run, open a fresh one late. Each
		// invalidates the caches and must quiesce in-flight speculation.
		if err := n.At(0.8, func() {
			if !n.Channel(0).Closed() {
				if err := n.CloseChannel(0); err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := n.At(1.7, func() {
			if !n.Channel(3).Closed() {
				if err := n.TopUpChannel(3, 50, 50); err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := n.At(2.5, func() {
			if _, err := n.OpenChannel(graph.NodeID(5), graph.NodeID(40), 120, 120); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		res, err := n.Execute(horizon)
		if err != nil {
			t.Fatal(err)
		}
		if workers >= 2 {
			if st := n.SpeculationStats(); st.Pauses == 0 {
				t.Fatalf("mutations ran without quiescing the pool: %+v", st)
			}
		}
		return res
	}
	serial := run(1)
	parallel := run(4)
	if !resultsEqual(serial, parallel) {
		t.Errorf("%v: parallel churn run diverged from serial\nserial:   %+v\nparallel: %+v", scheme, serial, parallel)
	}
}
