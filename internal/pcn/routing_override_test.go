package pcn

import (
	"math"
	"reflect"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// TestRoutingOverrideEquivalence pins the RoutingOverride contract: the
// hub-label tier serves byte-identical paths, so flipping the override
// must not move ANY simulation output — the whole Result (success ratio,
// throughput, delays, fees, imbalance, even the route-cache counters) is
// compared field for field.
func TestRoutingOverrideEquivalence(t *testing.T) {
	for _, scheme := range []Scheme{SchemeSplicer, SchemeLandmark, SchemeA2L} {
		run := func(override RoutingOverride) (Result, *Network) {
			g, trace := testGraphAndTrace(t, 33, 60, 40, 5)
			cfg := NewConfig(scheme)
			cfg.RoutingOverride = override
			n, err := NewNetwork(g, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", scheme, override, err)
			}
			res, err := n.Run(trace)
			if err != nil {
				t.Fatalf("%v/%v: %v", scheme, override, err)
			}
			return res, n
		}
		exact, _ := run(RoutingExact)
		labeled, n := run(RoutingHubLabels)

		hl := n.HubLabels()
		if hl == nil {
			t.Fatalf("%v: label tier not installed under RoutingHubLabels", scheme)
		}
		if st := hl.Stats(); st.Served == 0 {
			t.Fatalf("%v: label tier never served a query: %+v", scheme, st)
		}
		if labeled.LabelServed == 0 || labeled.LabelBuilds == 0 {
			t.Fatalf("%v: label counters missing from Result: %+v", scheme, labeled)
		}
		if got := n.Metrics().Counter("label_served"); got != float64(labeled.LabelServed) {
			t.Fatalf("%v: metrics label_served %v != Result %d", scheme, got, labeled.LabelServed)
		}

		// Everything except the label-activity fields must match exactly.
		// (NaN means "no samples"; NaN != NaN, so matched NaNs are zeroed.)
		labeled.LabelServed, labeled.LabelFallbacks = 0, 0
		labeled.LabelBuilds, labeled.LabelRepairs = 0, 0
		if math.IsNaN(exact.MeanDelay) && math.IsNaN(labeled.MeanDelay) {
			exact.MeanDelay, labeled.MeanDelay = 0, 0
		}
		if math.IsNaN(exact.MeanQueueDelay) && math.IsNaN(labeled.MeanQueueDelay) {
			exact.MeanQueueDelay, labeled.MeanQueueDelay = 0, 0
		}
		if !reflect.DeepEqual(exact, labeled) {
			t.Fatalf("%v: results diverge under hub-label routing:\nexact   %+v\nlabeled %+v", scheme, exact, labeled)
		}
	}
}

// TestLabelCountersSurviveRePlacement pins that a re-placement, which
// rebuilds the label tier for the new root set, does not reset the tier's
// counters: Result.Label* count the whole run, not the last placement
// interval.
func TestLabelCountersSurviveRePlacement(t *testing.T) {
	g, _ := testGraphAndTrace(t, 7, 60, 10, 1)
	cfg := NewConfig(SchemeSplicer)
	cfg.RoutingOverride = RoutingHubLabels
	cfg.Parallelism = 1
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	query := func() {
		hub := n.hubs[0]
		for v := range n.g.NumNodes() {
			if dst := graph.NodeID(v); !n.isHub[dst] {
				n.unitShortestPath(hub, dst)
				return
			}
		}
	}
	for range 5 {
		query()
	}
	if err := n.RePlaceHubs(); err != nil {
		t.Fatal(err)
	}
	query()
	res := n.summarize()
	if res.LabelServed != 6 || res.LabelFallbacks != 0 || res.LabelBuilds != 2 {
		t.Fatalf("six hub-rooted queries over two placements, one tree each: served %d, fallbacks %d, builds %d",
			res.LabelServed, res.LabelFallbacks, res.LabelBuilds)
	}
}

// TestRoutingOverrideValidation pins that an out-of-range override is
// rejected up front rather than silently treated as exact.
func TestRoutingOverrideValidation(t *testing.T) {
	cfg := NewConfig(SchemeSplicer)
	cfg.RoutingOverride = RoutingOverride(7)
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid RoutingOverride accepted")
	}
	if RoutingExact.String() != "exact" || RoutingHubLabels.String() != "hub-labels" {
		t.Fatalf("override names changed: %v %v", RoutingExact, RoutingHubLabels)
	}
}
