package pcn

import (
	"fmt"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// runWithParallelism runs one scheme over the shared test graph/trace with
// the given planning-worker count and returns the full Result.
func runWithParallelism(t *testing.T, scheme Scheme, workers int) Result {
	t.Helper()
	g, trace := testGraphAndTrace(t, 7, 80, 60, 4)
	cfg := NewConfig(scheme)
	cfg.Parallelism = workers
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if workers >= 2 {
		st := n.SpeculationStats()
		if speculationArmed(cfg, n.Policy()) {
			if st.Workers != workers {
				t.Fatalf("%v: speculation pool not armed (stats %+v)", scheme, st)
			}
			if st.Enqueued == 0 {
				t.Fatalf("%v: speculation pool armed but fed nothing (stats %+v)", scheme, st)
			}
			// How many speculative plans actually ran depends on the
			// scheduler (on a single-CPU host the pool may starve and every
			// plan falls back to the serial path — which is the correctness
			// story under test); log it rather than asserting.
			t.Logf("%v: speculation stats %+v", scheme, st)
		} else if st.Workers != 0 {
			t.Fatalf("%v: speculation pool armed for a non-speculable policy", scheme)
		}
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
// check: every scheme — the four speculation-safe ones, and Flash and
// Landmark (it owns lazily built tail trees), whose arming request must gate
// off to a no-op — produces a deeply equal Result
// (including the RouteCacheHits/Misses arithmetic that flows into panel
// CSVs) with 4 planning workers as with none. The scenario-level golden
// conformance twin covers the full CSV pipeline; this one localizes a
// divergence to a scheme quickly.
func TestSpeculativePlanningMatchesSerial(t *testing.T) {
	for _, scheme := range []Scheme{SchemeSplicer, SchemeSpider, SchemeFlash, SchemeLandmark, SchemeA2L, SchemeShortestPath} {
		serial := runWithParallelism(t, scheme, 0)
		parallel := runWithParallelism(t, scheme, 4)
		if !resultsEqual(serial, parallel) {
			t.Errorf("%v: parallel run diverged from serial\nserial:   %+v\nparallel: %+v", scheme, serial, parallel)
		}
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
// static fast path.
func TestSpeculationQuiescesForMutations(t *testing.T) {
	run := func(workers int) Result {
		g, trace := testGraphAndTrace(t, 13, 60, 50, 4)
		cfg := NewConfig(SchemeSplicer)
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
	serial := run(0)
	parallel := run(4)
	if !resultsEqual(serial, parallel) {
		t.Errorf("parallel churn run diverged from serial\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
