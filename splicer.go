// Package splicer is the public API of the Splicer reproduction: optimal
// payment-channel-hub placement and deadlock-free rate-based routing for
// payment channel network scalability (ICDCS 2023).
//
// One spec language describes every simulation: a Spec is a fully seeded
// topology × workload × optional dynamics/attack × scheme cell as plain data.
// Build one as a Go literal or load it from JSON with LoadSpec, then run it
// through its own methods:
//
//   - Spec.Run executes the cell with its own scheme, Spec.RunScheme with
//     any scheme; both report the paper's evaluation metrics (transaction
//     success ratio, normalized throughput, delay) and assert conservation
//     of funds at the end of the run.
//   - Spec.Build materializes the channel graph and the payment trace.
//   - PlaceHubs solves the PCH placement problem over a graph (exact
//     MILP/enumeration on small candidate sets, double-greedy
//     1/2-approximation on large ones).
//   - RunNamed regenerates a registered figure or table of the paper.
//
// See examples/ for runnable end-to-end programs, cmd/scenarios for the
// command line, and DESIGN.md for the paper-to-code map and the spec schema.
package splicer

import (
	"fmt"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/placement"
	"github.com/splicer-pcn/splicer/internal/scenario"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// Spec declares one simulation cell; zero optional fields take the paper's
// §V-A defaults. Every random component derives from Spec.Seed.
type Spec = scenario.Spec

// The nested blocks of a Spec.
type (
	TopologySpec = scenario.TopologySpec
	WorkloadSpec = scenario.WorkloadSpec
	OnOffSpec    = scenario.OnOffSpec
	DynamicsSpec = scenario.DynamicsSpec
	AttackSpec   = scenario.AttackSpec
	RoutingSpec  = scenario.RoutingSpec
	RetrySpec    = scenario.RetrySpec
)

// Table is a rendered result table (CSV/Markdown).
type Table = scenario.Table

// Graph is a payment channel network topology. Node identifiers are dense
// indices; every edge is a channel with independent per-direction funds.
type Graph = graph.Graph

// NodeID identifies a node in a Graph.
type NodeID = graph.NodeID

// Tx is one payment demand in a workload trace.
type Tx = workload.Tx

// Result summarizes a simulation run.
type Result = pcn.Result

// Scheme selects the routing scheme under evaluation.
type Scheme = pcn.Scheme

// The available schemes: Splicer and the four baselines of the paper's
// evaluation, plus a naive single-shortest-path reference.
const (
	Splicer      = pcn.SchemeSplicer
	Spider       = pcn.SchemeSpider
	Flash        = pcn.SchemeFlash
	Landmark     = pcn.SchemeLandmark
	A2L          = pcn.SchemeA2L
	ShortestPath = pcn.SchemeShortestPath
)

// LoadSpec reads and validates a JSON spec file (DESIGN.md "Scenario
// engine" has the schema; examples/scenarios/ has samples).
func LoadSpec(path string) (Spec, error) {
	return scenario.LoadSpec(path)
}

// Names lists the registered scenarios (the paper's figures and tables plus
// the standalone scenarios), sorted.
func Names() []string {
	return scenario.Names()
}

// RunNamed runs a registered scenario by name on `workers` sweep workers
// (0/1 serial, -1 all cores; results are identical for any value) and
// returns its rendered table.
func RunNamed(name string, workers int) (Table, error) {
	e, ok := scenario.Lookup(name)
	if !ok {
		return Table{}, fmt.Errorf("splicer: unknown scenario %q (see Names)", name)
	}
	return e.Run(scenario.RunOptions{Workers: workers})
}

// PlacementPlan is the outcome of a standalone placement solve.
type PlacementPlan struct {
	// Hubs are the selected smooth nodes.
	Hubs []NodeID
	// AssignedHub maps each client (by position in the Clients argument) to
	// its managing hub.
	AssignedHub []NodeID
	// ManagementCost, SyncCost and TotalCost break down the balance cost
	// C_B = C_M + ω·C_S.
	ManagementCost float64
	SyncCost       float64
	TotalCost      float64
	// Exact reports whether the plan is provably optimal (small-scale
	// track) rather than the 1/2-approximation.
	Exact bool
}

// PlaceHubs solves the PCH placement problem over the graph: candidates and
// clients are node sets, omega the management/synchronization tradeoff. The
// exact solver (the paper's MILP track) runs when the candidate set has at
// most 16 nodes; larger instances use the double-greedy approximation
// (Alg. 1).
func PlaceHubs(g *Graph, clients, candidates []NodeID, omega float64) (PlacementPlan, error) {
	inst, err := placement.NewInstanceFromGraph(g, clients, candidates, omega)
	if err != nil {
		return PlacementPlan{}, err
	}
	plan, err := inst.Solve()
	if err != nil {
		return PlacementPlan{}, err
	}
	out := PlacementPlan{
		ManagementCost: plan.MgmtCost,
		SyncCost:       plan.SyncCost,
		TotalCost:      plan.TotalCost,
		Exact:          inst.Exact(),
	}
	for _, idx := range plan.PlacedCandidates() {
		out.Hubs = append(out.Hubs, candidates[idx])
	}
	out.AssignedHub = make([]NodeID, len(clients))
	for m, idx := range plan.Assign {
		out.AssignedHub[m] = candidates[idx]
	}
	return out, nil
}

// TopDegreeNodes returns the k best-connected nodes — the default
// excellence proxy for the smooth-node candidate list.
func TopDegreeNodes(g *Graph, k int) []NodeID {
	return topology.TopDegreeNodes(g, k)
}
