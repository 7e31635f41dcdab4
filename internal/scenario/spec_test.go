package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
)

func TestSpecValidate(t *testing.T) {
	valid := []Spec{
		SmallSpec(), LargeSpec(), ScaleSpec(), ChurnSpec(),
		ReplaySnapshotSpec(), BurstyHubSpokeSpec(),
		{
			Seed:     1,
			Topology: TopologySpec{Type: TopoErdosRenyi, Nodes: 30, EdgeProb: 0.2},
			Workload: WorkloadSpec{Type: WorkSynthetic, Rate: 10, Duration: 2},
		},
		{
			Seed:     1,
			Topology: TopologySpec{Type: TopoBarabasiAlbert, Nodes: 30, AttachEdges: 2},
			Workload: WorkloadSpec{Type: WorkSynthetic, Rate: 10, Duration: 2},
		},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %q: unexpected validation error: %v", s.Name, err)
		}
	}

	invalid := map[string]func(*Spec){
		"unknown topology":   func(s *Spec) { s.Topology.Type = "torus" },
		"unknown workload":   func(s *Spec) { s.Workload.Type = "quantum" },
		"unknown scheme":     func(s *Spec) { s.Scheme = "Ripple" },
		"tiny nodes":         func(s *Spec) { s.Topology.Nodes = 2 },
		"zero rate":          func(s *Spec) { s.Workload.Rate = 0 },
		"zero duration":      func(s *Spec) { s.Workload.Duration = 0 },
		"bad edge prob":      func(s *Spec) { s.Topology.Type = TopoErdosRenyi; s.Topology.EdgeProb = 1.5 },
		"bad path type":      func(s *Spec) { s.Routing.PathType = "Quickest" },
		"bad scheduler":      func(s *Spec) { s.Routing.Scheduler = "Random" },
		"negative churn":     func(s *Spec) { s.Dynamics = &DynamicsSpec{ChurnRate: -1} },
		"bad on-off":         func(s *Spec) { s.Workload.OnOff = &OnOffSpec{MeanOn: 0, MeanOff: 1, OnFactor: 2} },
		"snapshot w/o file":  func(s *Spec) { s.Topology.Type = TopoSnapshot; s.Topology.Snapshot = "" },
		"negative overrides": func(s *Spec) { s.Routing.NumPaths = -1 },
	}
	for name, mutate := range invalid {
		s := SmallSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", name)
		}
	}

	// Replay + dynamics is structurally impossible.
	s := ReplaySnapshotSpec()
	s.Dynamics = &DynamicsSpec{ChurnRate: 1}
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted replay workload with dynamics")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, s := range []Spec{SmallSpec(), ChurnSpec(), ReplaySnapshotSpec(), BurstyHubSpokeSpec()} {
		data, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v\n%s", s.Name, err, data)
		}
		if !reflect.DeepEqual(got, s.normalize()) {
			t.Errorf("%s: JSON round trip diverged:\n got %+v\nwant %+v", s.Name, got, s.normalize())
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"seed":1,"topolgy":{"type":"watts-strogatz"}}`)); err == nil {
		t.Fatal("ParseSpec accepted a typoed field name")
	}
}

func TestWithParamCopiesDynamics(t *testing.T) {
	base := ChurnSpec()
	a, err := base.withParam("churn_rate", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.withParam("churn_rate", 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dynamics.ChurnRate != 2 || b.Dynamics.ChurnRate != 4 || base.Dynamics.ChurnRate != 0 {
		t.Fatalf("withParam shared dynamics state: a=%v b=%v base=%v",
			a.Dynamics.ChurnRate, b.Dynamics.ChurnRate, base.Dynamics.ChurnRate)
	}
	if _, err := base.withParam("gravity", 1); err == nil {
		t.Fatal("withParam accepted an unknown parameter")
	}
}

func TestSpecBuildMatchesScenarioContract(t *testing.T) {
	// The small spec must build the same topology size/trace the historical
	// scenario produced (full byte-level parity is pinned by the golden
	// test; this catches gross drift fast).
	g, trace, err := SmallSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("small spec built %d nodes", g.NumNodes())
	}
	if len(trace) == 0 {
		t.Fatal("small spec built an empty trace")
	}
	if !g.Connected() {
		t.Fatal("small spec graph not connected")
	}
}

// TestBuildGraph: the graph-only build needs no trace, so a 1 tx/s × 1 s
// workload, whose trace comes out empty and fails Build, still builds its
// graph; and the graph equals Build's edge for edge, capacities included.
func TestBuildGraph(t *testing.T) {
	tiny := Spec{
		Seed:     21,
		Topology: TopologySpec{Type: TopoWattsStrogatz, Nodes: 100},
		Workload: WorkloadSpec{Type: WorkSynthetic, Rate: 1, Duration: 1},
	}
	if _, _, err := tiny.Build(); err == nil {
		t.Fatal("Build of the 1 tx/s × 1 s spec succeeded; the test needs a spec whose trace is empty")
	}
	g, err := tiny.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	busy := tiny
	busy.Workload.Rate = 10
	want, _, err := busy.Build()
	if err != nil {
		t.Fatal(err)
	}
	sameEdges(t, "watts-strogatz", g, want)
	for _, s := range []Spec{SmallSpec(), BurstyHubSpokeSpec()} {
		want, _, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		sameEdges(t, s.Topology.Type, got, want)
	}
}

// sameEdges fails unless got and want hold the same edges, capacities
// included, under the same ids.
func sameEdges(t *testing.T, name string, got, want *graph.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: BuildGraph made %d nodes and %d edges, Build %d and %d", name, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for i := 0; i < want.NumEdges(); i++ {
		if a, b := got.Edge(graph.EdgeID(i)), want.Edge(graph.EdgeID(i)); a != b {
			t.Fatalf("%s: edge %d is %+v from BuildGraph, %+v from Build", name, i, a, b)
		}
	}
}

func TestReplaySnapshotScenario(t *testing.T) {
	spec := ReplaySnapshotSpec()
	g, trace, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 80 {
		t.Fatalf("snapshot has %d nodes, want 80", g.NumNodes())
	}
	if len(trace) == 0 {
		t.Fatal("replay trace empty")
	}
	res, err := spec.RunScheme(pcn.SchemeSplicer)
	if err != nil {
		t.Fatal(err)
	}
	if res.TSR <= 0.5 || res.TSR > 1 {
		t.Fatalf("replay-snapshot Splicer TSR = %v, want a healthy run", res.TSR)
	}
	// Determinism: the replayed cell is a pure function of the fixtures.
	// (Compare formatted, not DeepEqual: NaN metrics are legitimately NaN.)
	again, err := spec.RunScheme(pcn.SchemeSplicer)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", again) {
		t.Fatal("replay-snapshot run is not deterministic")
	}
}

func TestBurstyHubSpokeScenario(t *testing.T) {
	spec := BurstyHubSpokeSpec()
	g, trace, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := 3 + 9 + 90
	if g.NumNodes() != wantNodes {
		t.Fatalf("hub-spoke has %d nodes, want %d", g.NumNodes(), wantNodes)
	}
	// Leaf-only demand: no payment may originate or terminate at the hub
	// tier (nodes 0..11).
	for _, tx := range trace {
		if tx.Sender < 12 || tx.Recipient < 12 {
			t.Fatalf("payment %d uses hub-tier endpoint (%d -> %d)", tx.ID, tx.Sender, tx.Recipient)
		}
	}
	res, err := spec.RunScheme(pcn.SchemeSplicer)
	if err != nil {
		t.Fatal(err)
	}
	if res.TSR <= 0.3 || res.TSR > 1 {
		t.Fatalf("bursty-hubspoke Splicer TSR = %v, want a functioning run", res.TSR)
	}
	again, err := spec.RunScheme(pcn.SchemeSplicer)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", again) {
		t.Fatal("bursty-hubspoke run is not deterministic")
	}
}

func TestRunRequiresScheme(t *testing.T) {
	s := SmallSpec()
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "scheme") {
		t.Fatalf("Run without scheme: err = %v", err)
	}
	s.Scheme = "Splicer"
	s.Workload.Duration = 1
	s.Workload.Rate = 30
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayTraceBoundsChecked(t *testing.T) {
	// A replay trace referencing nodes outside the snapshot must fail
	// loudly at build time.
	s := ReplaySnapshotSpec()
	s.Topology = TopologySpec{Type: TopoErdosRenyi, Nodes: 10, EdgeProb: 0.5}
	if _, _, err := s.Build(); err == nil || !strings.Contains(err.Error(), "references node") {
		t.Fatalf("out-of-range replay trace: err = %v", err)
	}
}

func TestUnknownBuiltinAsset(t *testing.T) {
	s := ReplaySnapshotSpec()
	s.Topology.Snapshot = "builtin:does-not-exist"
	if _, _, err := s.Build(); err == nil {
		t.Fatal("Build accepted an unknown builtin asset")
	}
}
