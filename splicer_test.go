package splicer

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallSpec is a 60-node Watts–Strogatz cell with the paper's workload
// shape (Zipf 0.8, 20 % circulation).
func smallSpec() Spec {
	return Spec{
		Seed:     5,
		Scheme:   "Splicer",
		Topology: TopologySpec{Type: "watts-strogatz", Nodes: 60},
		Workload: WorkloadSpec{Type: "synthetic", Rate: 40, Duration: 4, ZipfSkew: 0.8, CirculationFraction: 0.2},
	}
}

func TestBuildNetworkValidation(t *testing.T) {
	spec := smallSpec()
	spec.Topology.Nodes = 0
	if _, _, err := spec.Build(); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestEndToEndPublicAPI(t *testing.T) {
	spec := smallSpec()
	spec.Routing = RoutingSpec{
		NumPaths: 4, PathType: "EDW", Scheduler: "LIFO", UpdateTauMs: 200,
		HubCandidates: 8, PlacementOmega: 0.5,
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TSR <= 0 || res.TSR > 1 {
		t.Fatalf("TSR %v", res.TSR)
	}
	if res.Generated == 0 || res.Completed > res.Generated {
		t.Fatalf("implausible counts: %+v", res)
	}
}

// TestOptionValidation: every routing override with an invalid value is
// rejected by Validate, which Run and Build call first.
func TestOptionValidation(t *testing.T) {
	cases := []RoutingSpec{
		{NumPaths: -1},
		{PathType: "nope"},
		{Scheduler: "nope"},
		{UpdateTauMs: -1},
		{PlacementOmega: -1},
		{HubCandidates: -1},
		{Override: "nope"},
	}
	for i, r := range cases {
		spec := smallSpec()
		spec.Routing = r
		if err := spec.Validate(); err == nil {
			t.Fatalf("case %d: invalid routing %+v accepted", i, r)
		}
	}
}

func TestPlaceHubsPublic(t *testing.T) {
	g, _, err := smallSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	candidates := TopDegreeNodes(g, 6)
	candSet := map[NodeID]bool{}
	for _, c := range candidates {
		candSet[c] = true
	}
	var clients []NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if !candSet[NodeID(i)] {
			clients = append(clients, NodeID(i))
		}
	}
	plan, err := PlaceHubs(g, clients, candidates, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Exact {
		t.Fatal("6 candidates should use the exact solver")
	}
	if len(plan.Hubs) == 0 || len(plan.AssignedHub) != len(clients) {
		t.Fatalf("plan: %+v", plan)
	}
	hubSet := map[NodeID]bool{}
	for _, h := range plan.Hubs {
		hubSet[h] = true
	}
	for _, h := range plan.AssignedHub {
		if !hubSet[h] {
			t.Fatalf("client assigned to unplaced hub %d", h)
		}
	}
	if plan.TotalCost <= 0 {
		t.Fatalf("cost %v", plan.TotalCost)
	}
}

func TestGenerateWorkloadDefaults(t *testing.T) {
	spec := Spec{
		Seed:     1,
		Topology: TopologySpec{Type: "watts-strogatz", Nodes: 30},
		Workload: WorkloadSpec{Type: "synthetic", Rate: 20, Duration: 2},
	}
	_, trace, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range trace {
		if d := tx.Deadline - tx.Arrival; d < 3-1e-9 || d > 3+1e-9 {
			t.Fatalf("default timeout not applied: %+v", tx)
		}
	}
}

func TestSchemeComparisonViaPublicAPI(t *testing.T) {
	spec := smallSpec()
	results := map[Scheme]Result{}
	for _, scheme := range []Scheme{Splicer, Spider, A2L} {
		res, err := spec.RunScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		results[scheme] = res
	}
	if results[Splicer].TSR < results[A2L].TSR {
		t.Fatalf("Splicer TSR %v below A2L %v", results[Splicer].TSR, results[A2L].TSR)
	}
}

func TestScenarioPublicAPI(t *testing.T) {
	names := Names()
	if len(names) < 18 {
		t.Fatalf("Names returned %d entries: %v", len(names), names)
	}
	table, err := RunNamed("table1", -1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.CSV(), "Splicer") {
		t.Fatalf("table1 CSV unexpected:\n%s", table.CSV())
	}
	if _, err := RunNamed("figX", 1); err == nil {
		t.Fatal("RunNamed accepted an unknown name")
	}
}

func TestRunScenarioSpecFromJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{
		"name": "tiny", "seed": 3, "scheme": "ShortestPath",
		"topology": {"type": "erdos-renyi", "nodes": 25, "edge_prob": 0.2},
		"workload": {"type": "synthetic", "rate": 20, "duration": 2}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 || res.TSR < 0 || res.TSR > 1 {
		t.Fatalf("spec run result implausible: %+v", res)
	}
}

// TestExampleSpecsValidate loads every spec shipped under
// examples/scenarios/, so a schema change cannot leave one unparseable.
func TestExampleSpecsValidate(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("found %d example specs, want at least 2", len(paths))
	}
	for _, path := range paths {
		if _, err := LoadSpec(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
