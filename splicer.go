// Package splicer is the public API of the Splicer reproduction: optimal
// payment-channel-hub placement and deadlock-free rate-based routing for
// payment channel network scalability (ICDCS 2023).
//
// The package wraps the internal engine behind three entry points:
//
//   - BuildNetwork / GenerateWorkload construct a Lightning-like channel
//     graph and a reproducible payment trace.
//   - PlaceHubs solves the PCH placement problem (exact MILP/enumeration on
//     small candidate sets, double-greedy 1/2-approximation on large ones).
//   - NewSimulation runs a routing scheme over the network and trace and
//     reports the paper's evaluation metrics (transaction success ratio,
//     normalized throughput, delay).
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// paper-to-code map.
package splicer

import (
	"fmt"
	"time"

	"github.com/splicer-pcn/splicer/internal/channel"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/placement"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

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

// NetworkSpec configures BuildNetwork.
type NetworkSpec struct {
	// Seed makes the topology reproducible.
	Seed uint64
	// Nodes is the network size (the paper evaluates 100 and 3000).
	Nodes int
	// Degree and Rewire parameterize the Watts–Strogatz generator
	// (defaults 4 and 0.25).
	Degree int
	Rewire float64
	// ChannelScale multiplies the Lightning-calibrated channel sizes
	// (min 10 / median 152 / mean 403 tokens at scale 1).
	ChannelScale float64
}

// BuildNetwork generates a connected small-world channel graph with
// heavy-tailed Lightning-like channel sizes.
func BuildNetwork(spec NetworkSpec) (*Graph, error) {
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("splicer: Nodes must be positive")
	}
	if spec.Degree == 0 {
		spec.Degree = 4
	}
	if spec.Rewire == 0 {
		spec.Rewire = 0.25
	}
	if spec.ChannelScale == 0 {
		spec.ChannelScale = 1
	}
	src := rng.New(spec.Seed)
	sizes := workload.NewChannelSizeDist(src.Split(1), spec.ChannelScale)
	g, err := topology.WattsStrogatz(src.Split(2), spec.Nodes, spec.Degree, spec.Rewire, sizes.CapacityFunc())
	if err != nil {
		return nil, fmt.Errorf("splicer: %w", err)
	}
	return g, nil
}

// WorkloadSpec configures GenerateWorkload.
type WorkloadSpec struct {
	Seed uint64
	// Rate is the aggregate Poisson arrival rate in tx/sec; Duration the
	// trace length in seconds.
	Rate     float64
	Duration float64
	// Timeout per payment (default 3 s, the paper's setting).
	Timeout float64
	// ValueScale multiplies the credit-card-like value distribution.
	ValueScale float64
	// ZipfSkew skews endpoint popularity (default 0.8).
	ZipfSkew float64
	// CirculationFraction injects the deadlock-inducing circulation pattern
	// of §II-B (default 0.2).
	CirculationFraction float64
}

// GenerateWorkload produces a reproducible payment trace over all nodes of
// the graph.
func GenerateWorkload(g *Graph, spec WorkloadSpec) ([]Tx, error) {
	if spec.Timeout == 0 {
		spec.Timeout = 3
	}
	if spec.ValueScale == 0 {
		spec.ValueScale = 1
	}
	if spec.ZipfSkew == 0 {
		spec.ZipfSkew = 0.8
	}
	if spec.CirculationFraction == 0 {
		spec.CirculationFraction = 0.2
	}
	clients := make([]NodeID, g.NumNodes())
	for i := range clients {
		clients[i] = NodeID(i)
	}
	trace, err := workload.Generate(rng.New(spec.Seed), workload.Config{
		Clients:             clients,
		Rate:                spec.Rate,
		Duration:            spec.Duration,
		Timeout:             spec.Timeout,
		ZipfSkew:            spec.ZipfSkew,
		ValueScale:          spec.ValueScale,
		CirculationFraction: spec.CirculationFraction,
	})
	if err != nil {
		return nil, fmt.Errorf("splicer: %w", err)
	}
	return trace, nil
}

// Option mutates the simulation configuration.
type Option func(*pcn.Config) error

// WithPaths sets k, the number of multi-paths (paper default 5).
func WithPaths(k int) Option {
	return func(c *pcn.Config) error {
		if k <= 0 {
			return fmt.Errorf("splicer: paths must be positive")
		}
		c.NumPaths = k
		return nil
	}
}

// WithPathType selects the path strategy: "KSP", "Heuristic", "EDW", "EDS".
func WithPathType(name string) Option {
	return func(c *pcn.Config) error {
		pt, err := routing.PathTypeByName(name)
		if err != nil {
			return err
		}
		c.PathType = pt
		return nil
	}
}

// WithScheduler selects the queue discipline: "FIFO", "LIFO", "SPF", "EDF".
func WithScheduler(name string) Option {
	return func(c *pcn.Config) error {
		s, err := channel.SchedulerByName(name)
		if err != nil {
			return err
		}
		c.Scheduler = s
		return nil
	}
}

// WithUpdateInterval sets the τ price/probe update period.
func WithUpdateInterval(d time.Duration) Option {
	return func(c *pcn.Config) error {
		if d <= 0 {
			return fmt.Errorf("splicer: update interval must be positive")
		}
		c.UpdateTau = d.Seconds()
		return nil
	}
}

// WithHubs pins the hub set instead of running placement.
func WithHubs(hubs ...NodeID) Option {
	return func(c *pcn.Config) error {
		if len(hubs) == 0 {
			return fmt.Errorf("splicer: need at least one hub")
		}
		c.Hubs = append([]NodeID(nil), hubs...)
		return nil
	}
}

// WithPlacementOmega sets the ω cost-tradeoff weight used when placement
// runs inside the simulation.
func WithPlacementOmega(omega float64) Option {
	return func(c *pcn.Config) error {
		if omega < 0 {
			return fmt.Errorf("splicer: omega must be >= 0")
		}
		c.PlacementOmega = omega
		return nil
	}
}

// WithHubCandidates bounds the smooth-node candidate list size.
func WithHubCandidates(n int) Option {
	return func(c *pcn.Config) error {
		if n < 1 {
			return fmt.Errorf("splicer: need at least one candidate")
		}
		c.NumHubCandidates = n
		return nil
	}
}

// Simulation is a configured run over one network and trace.
type Simulation struct {
	net *pcn.Network
}

// NewSimulation wires a scheme over the graph. The simulation takes
// ownership of the graph (Splicer's multi-star reshaping adds client-hub
// channels); clone it first if you need the original afterwards.
func NewSimulation(g *Graph, scheme Scheme, opts ...Option) (*Simulation, error) {
	cfg := pcn.NewConfig(scheme)
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	net, err := pcn.NewNetwork(g, cfg)
	if err != nil {
		return nil, err
	}
	return &Simulation{net: net}, nil
}

// Run executes the trace and returns the evaluation metrics.
func (s *Simulation) Run(trace []Tx) (Result, error) {
	return s.net.Run(trace)
}

// Hubs returns the hub set in effect (placement output or override).
func (s *Simulation) Hubs() []NodeID { return s.net.Hubs() }

// HubOf returns the managing hub of a client, if the scheme uses hubs.
func (s *Simulation) HubOf(client NodeID) (NodeID, bool) { return s.net.HubOf(client) }

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
