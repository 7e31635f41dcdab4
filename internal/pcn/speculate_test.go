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
// the given routing backend and planning-worker count and returns the full
// Result.
func runWithParallelism(t *testing.T, scheme Scheme, routing RoutingOverride, workers int) Result {
	t.Helper()
	g, trace := testGraphAndTrace(t, 7, 80, 60, 4)
	cfg := NewConfig(scheme)
	cfg.RoutingOverride = routing
	cfg.Parallelism = workers
	return runPlanned(t, g, trace, cfg)
}

// runPlanned runs cfg (an explicit Parallelism) over g and trace, and checks
// what must hold of the planning pool whatever the scheduler did: it is
// staffed exactly when the width is 2 or more and the policy prefetches
// (label-free, under hub-label routing), it was fed every scheduled
// payment, and every route-cache miss was either replayed from the memo or
// computed on the committer.
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
	p, ok := n.Policy().(RoutePrefetcher)
	if !ok || want < 2 || cfg.RoutingOverride == RoutingHubLabels && !p.PrefetchesLabelFree() {
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
// the RouteCacheHits/Misses and label-tier arithmetic that flows into panel
// CSVs) with 2 and 4 planning workers as with the pool off, under both
// routing backends. The scenario-level golden conformance twin covers the
// full CSV pipeline; this one localizes a divergence to a scheme quickly.
func TestSpeculativePlanningMatchesSerial(t *testing.T) {
	for _, routing := range []RoutingOverride{RoutingExact, RoutingHubLabels} {
		for _, scheme := range []Scheme{SchemeSplicer, SchemeSpider, SchemeFlash, SchemeLandmark, SchemeA2L, SchemeShortestPath} {
			serial := runWithParallelism(t, scheme, routing, 1)
			for _, width := range []int{2, 4} {
				if parallel := runWithParallelism(t, scheme, routing, width); !resultsEqual(serial, parallel) {
					t.Errorf("%v, %v routing: width-%d run diverged from serial\nserial:   %+v\nparallel: %+v", scheme, routing, width, serial, parallel)
				}
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

// TestSpeculationArmsLabelFreePrefetchers pins which (policy, routing)
// pairs get a planning pool. Under exact routing every prefetcher does.
// Under hub-label routing only the policies whose prefetch stays off the
// label tier do — Splicer (transit legs) and Spider (whole plans) — since
// the tier builds its trees lazily and its counters flow into Result.
// ShortestPath's and A2L's searches and Flash's mice are label queries
// there; Landmark never prefetches.
func TestSpeculationArmsLabelFreePrefetchers(t *testing.T) {
	g, _ := testGraphAndTrace(t, 7, 40, 10, 1)
	const width = 3
	for _, tc := range []struct {
		scheme        Scheme
		exact, labels int
	}{
		{SchemeSplicer, width, width},
		{SchemeSpider, width, width},
		{SchemeShortestPath, width, 0},
		{SchemeA2L, width, 0},
		{SchemeFlash, width, 0},
		{SchemeLandmark, 0, 0},
	} {
		for _, routing := range []RoutingOverride{RoutingExact, RoutingHubLabels} {
			cfg := NewConfig(tc.scheme)
			cfg.RoutingOverride = routing
			cfg.Parallelism = width
			n, err := NewNetwork(g.Clone(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.exact
			if routing == RoutingHubLabels {
				want = tc.labels
			}
			if got := n.SpeculationStats().Workers; got != want {
				t.Errorf("%v, %v routing: %d planning workers, want %d", tc.scheme, routing, got, want)
			}
		}
	}
}

// TestSplicerPrefetchesLabelFreeKeysOnly pins Splicer's side of the
// prefetch contract under hub-label routing. For clients of two different
// hubs a worker warms the transit key alone: the access legs are label
// queries, left to the committer. For clients of one hub, and for a
// payment between two hubs, no access leg exists, so it warms the whole
// composed key (the latter with its transit child). In no case does it
// reach the label tier or the live route-cache counters.
func TestSplicerPrefetchesLabelFreeKeysOnly(t *testing.T) {
	g, _ := testGraphAndTrace(t, 7, 80, 10, 1)
	cfg := NewConfig(SchemeSplicer)
	cfg.RoutingOverride = RoutingHubLabels
	cfg.Parallelism = 2
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clientsOf := map[graph.NodeID][]graph.NodeID{}
	for v := range n.g.NumNodes() {
		if c := graph.NodeID(v); !n.isHub[c] {
			clientsOf[n.hubOf[c]] = append(clientsOf[n.hubOf[c]], c)
		}
	}
	var hubA, hubB graph.NodeID = -1, -1
	for _, h := range n.hubs {
		if len(clientsOf[h]) >= 2 && hubA < 0 {
			hubA = h
		} else if len(clientsOf[h]) >= 1 && hubB < 0 {
			hubB = h
		}
	}
	if hubA < 0 || hubB < 0 {
		t.Fatalf("placement gave no two hubs with clients to route between: %v", n.hubs)
	}
	a1, a2, b := clientsOf[hubA][0], clientsOf[hubA][1], clientsOf[hubB][0]
	transit := RouteKey{Src: hubA, Dst: hubB, Type: cfg.PathType, K: cfg.NumPaths}
	composed := func(s, r graph.NodeID) RouteKey {
		return RouteKey{Src: s, Dst: r, Type: ComposedRoutes, K: cfg.NumPaths}
	}
	w := n.spec.newWorker()
	for _, tc := range []struct {
		name string
		s, r graph.NodeID
		want []RouteKey
	}{
		{"clients of two hubs", a1, b, []RouteKey{transit}},
		{"clients of one hub", a1, a2, []RouteKey{composed(a1, a2)}},
		{"hub to hub", hubA, hubB, []RouteKey{composed(hubA, hubB), transit}},
	} {
		n.spec.invalidate()
		w.plan(workload.Tx{ID: 1, Sender: tc.s, Recipient: tc.r, Value: 1})
		if len(n.spec.entries) != len(tc.want) {
			t.Errorf("%s: prefetched %d keys %v, want %v", tc.name, len(n.spec.entries), n.spec.entries, tc.want)
		}
		for _, k := range tc.want {
			if e := n.spec.entries[k]; e == nil || e.err != nil || len(e.paths) == 0 {
				t.Errorf("%s: no usable entry under %+v: %+v", tc.name, k, e)
			}
		}
	}
	if n.labels != nil || w.shadow.labels != nil {
		t.Fatal("a prefetch reached the label tier")
	}
	if n.Routes().Hits()+n.Routes().Misses() != 0 {
		t.Fatal("prefetching moved the live route-cache counters")
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
