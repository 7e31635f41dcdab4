// Placement panels (Fig. 9): analytical evaluations of the hub-placement
// solver over a spec's topology. The build path reuses the spec pipeline, so
// a panel places hubs on exactly the topology its simulation cells run on.
package scenario

import (
	"fmt"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/placement"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/sweep"
	"github.com/splicer-pcn/splicer/internal/topology"
)

// placementParts materializes what every placement panel shares across its
// omega sweep — the topology (built once; it depends only on the seed, not
// on omega), the candidate list from the voting excellence proxy (top
// degree), the remaining nodes as clients, and one BFS hop matrix from the
// candidates, from which the cost matrices are derived once: they do not
// depend on omega either.
type placementParts struct {
	st      *buildState
	g       *graph.Graph
	cands   []graph.NodeID
	clients []graph.NodeID
	hops    [][]int             // placement.CandidateHops(g, cands)
	base    *placement.Instance // at omega 0; see instance
}

func newPlacementParts(s Spec) (*placementParts, error) {
	st, err := s.beginBuild()
	if err != nil {
		return nil, err
	}
	p := &placementParts{st: st, g: st.g}
	p.cands = topology.TopDegreeNodes(p.g, s.hubCandidates())
	candSet := map[graph.NodeID]bool{}
	for _, c := range p.cands {
		candSet[c] = true
	}
	for i := 0; i < p.g.NumNodes(); i++ {
		if !candSet[graph.NodeID(i)] {
			p.clients = append(p.clients, graph.NodeID(i))
		}
	}
	p.hops = placement.CandidateHops(p.g, p.cands)
	p.base, err = placement.NewInstanceFromHops(p.hops, p.clients, p.cands, 0)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// instance is the placement instance for one omega: a shallow copy of the
// base instance, sharing its read-only cost matrices.
func (p *placementParts) instance(omega float64) *placement.Instance {
	inst := *p.base
	inst.Omega = omega
	return &inst
}

// solveOmegas runs solve on the instance of every omega, on the sweep pool
// (opts.Workers wide), and returns the results in omega order. The solves
// share only the read-only cost matrices, so the output is the same for any
// width.
func solveOmegas[T any](p *placementParts, omegas []float64, opts RunOptions, solve func(*placement.Instance) (T, error)) ([]T, error) {
	out := make([]T, len(omegas))
	errs := make([]error, len(omegas))
	sweep.Each(len(omegas), opts.workerCount(), func(i, _ int) {
		out[i], errs[i] = solve(p.instance(omegas[i]))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BalanceCostSeries is Fig. 9(a): average balance cost vs ω, model
// (approximation) vs optimal.
func BalanceCostSeries(base Spec, omegas []float64, opts RunOptions) ([]Series, error) {
	parts, err := newPlacementParts(base)
	if err != nil {
		return nil, err
	}
	type both struct {
		approx, exact placement.Plan
	}
	solved, err := solveOmegas(parts, omegas, opts, func(inst *placement.Instance) (both, error) {
		approx, err := inst.SolveDoubleGreedy(nil)
		if err != nil || !inst.Exact() {
			return both{approx: approx}, err
		}
		exact, err := inst.SolveExhaustive()
		return both{approx, exact}, err
	})
	if err != nil {
		return nil, err
	}
	model := Series{Name: "model"}
	optimal := Series{Name: "optimal"}
	for i, omega := range omegas {
		model.Points = append(model.Points, Point{X: omega, Y: solved[i].approx.TotalCost})
		if parts.base.Exact() {
			optimal.Points = append(optimal.Points, Point{X: omega, Y: solved[i].exact.TotalCost})
		}
	}
	out := []Series{model}
	if len(optimal.Points) > 0 {
		out = append(out, optimal)
	}
	return out, nil
}

// TradeoffPoint is one annotated point of Fig. 9(b).
type TradeoffPoint struct {
	Omega    float64
	MgmtCost float64
	SyncCost float64
	NumHubs  int
}

// CostTradeoff is Fig. 9(b): the management-vs-synchronization cost curve,
// annotated with (ω, number of smooth nodes).
func CostTradeoff(base Spec, omegas []float64, opts RunOptions) ([]TradeoffPoint, error) {
	parts, err := newPlacementParts(base)
	if err != nil {
		return nil, err
	}
	plans, err := solveOmegas(parts, omegas, opts, (*placement.Instance).Solve)
	if err != nil {
		return nil, err
	}
	var out []TradeoffPoint
	for i, omega := range omegas {
		out = append(out, TradeoffPoint{
			Omega:    omega,
			MgmtCost: plans[i].MgmtCost,
			SyncCost: plans[i].SyncCost,
			NumHubs:  plans[i].NumPlaced(),
		})
	}
	return out, nil
}

// HubCount is Fig. 9(c)/(d): the number of smooth nodes placed per ω. The
// series carries the spec's name, matching the historical legend.
func HubCount(base Spec, omegas []float64, opts RunOptions) (Series, error) {
	parts, err := newPlacementParts(base)
	if err != nil {
		return Series{}, err
	}
	plans, err := solveOmegas(parts, omegas, opts, (*placement.Instance).Solve)
	if err != nil {
		return Series{}, err
	}
	s := Series{Name: base.Name}
	for i, omega := range omegas {
		s.Points = append(s.Points, Point{X: omega, Y: float64(plans[i].NumPlaced())})
	}
	return s, nil
}

// DelayOverheadPoint is one point of Fig. 9(e/f): average transaction delay
// vs total traffic overhead, with or without PCHs.
type DelayOverheadPoint struct {
	Omega    float64 // 0 for the "without PCHs" reference
	WithPCH  bool
	DelayMs  float64
	Overhead float64
}

// perHopDelayMs is the modeled per-hop communication latency for the
// Fig. 9(e/f) analytical curves.
const perHopDelayMs = 20

// DelayOverhead is Fig. 9(e)/9(f): iterate ω, compute the average payment
// delay (client → hub → hub → client path hops × per-hop latency) and the
// total communication overhead (management + synchronization cost mass);
// compare against the source-routing reference without PCHs, where every
// sender maintains the full topology.
func DelayOverhead(base Spec, omegas []float64, opts RunOptions) ([]DelayOverheadPoint, error) {
	parts, err := newPlacementParts(base)
	if err != nil {
		return nil, err
	}
	plans, err := solveOmegas(parts, omegas, opts, (*placement.Instance).Solve)
	if err != nil {
		return nil, err
	}
	g, cands, clients, hopsFrom := parts.g, parts.cands, parts.clients, parts.hops

	var out []DelayOverheadPoint
	for i, plan := range plans {
		placed := plan.PlacedCandidates()
		// Average client→hub hop count under the plan's assignment.
		totalAccess := 0.0
		for m, hubIdx := range plan.Assign {
			totalAccess += float64(hopsFrom[hubIdx][clients[m]])
		}
		meanAccess := totalAccess / float64(len(clients))
		// Average hub→hub hop count.
		meanHubHub := 0.0
		if len(placed) > 1 {
			total, pairs := 0.0, 0
			for _, a := range placed {
				for _, b := range placed {
					if a != b {
						total += float64(hopsFrom[a][cands[b]])
						pairs++
					}
				}
			}
			meanHubHub = total / float64(pairs)
		}
		// A payment crosses: sender→hub, hub⇝hub, hub→recipient.
		delay := (2*meanAccess + meanHubHub) * perHopDelayMs
		overhead := plan.MgmtCost + plan.SyncCost
		out = append(out, DelayOverheadPoint{Omega: omegas[i], WithPCH: true, DelayMs: delay, Overhead: overhead})
	}
	// Without PCHs: every sender source-routes. The per-payment delay has
	// three components the PCH side avoids: (i) the sender must probe its
	// candidate paths end-to-end before committing rates/amounts (a probe
	// round trip of 2×hops), (ii) the payment itself (hops), and (iii) the
	// sender-side route computation over the full topology. PCHs instead
	// decide from the epoch-synchronized global state and send immediately
	// (§III-C's management-cost motivation). Overhead: every node maintains
	// the full topology via gossip, costing management-cost-per-hop × mean
	// hops per node.
	meanPair, err := meanPairwiseHops(g, parts.st.src.Split(9), 200)
	if err != nil {
		return nil, err
	}
	computeMs := pcn.NewConfig(pcn.SchemeSpider).SenderComputeDelayPerNode * float64(g.NumNodes()) * 1000
	srcDelay := 3*meanPair*perHopDelayMs + computeMs
	srcOverhead := placement.DefaultMgmtPerHop * meanPair * float64(g.NumNodes())
	out = append(out, DelayOverheadPoint{Omega: 0, WithPCH: false, DelayMs: srcDelay, Overhead: srcOverhead})
	return out, nil
}

// meanPairwiseHops estimates the mean shortest-path hop count by sampling.
// Each sample draws both endpoints, then searches only until the target.
func meanPairwiseHops(g *graph.Graph, src *rng.Source, samples int) (float64, error) {
	if g.NumNodes() < 2 {
		return 0, fmt.Errorf("scenario: graph too small")
	}
	pf := graph.NewPathFinder(g)
	total, count := 0.0, 0
	for i := 0; i < samples; i++ {
		u := graph.NodeID(src.IntN(g.NumNodes()))
		v := graph.NodeID(src.IntN(g.NumNodes()))
		if u == v {
			continue
		}
		d := pf.UnitHops(u, v)
		if d < 0 {
			continue
		}
		total += float64(d)
		count++
	}
	if count == 0 {
		return 0, fmt.Errorf("scenario: no connected samples")
	}
	return total / float64(count), nil
}
