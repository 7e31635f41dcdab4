package pcn

import (
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// flashPolicy implements Flash's elephant/mice split: large payments run a
// modified max-flow on current spendable balances and send along the flow
// decomposition; small payments pick one of a few precomputed shortest paths
// at random. The policy owns the τ-stale balance snapshot its max-flow runs
// against (source routers only learn balances from the periodic gossip);
// the precomputed mice paths live in the network's shared RouteCache under
// their (KSP, FlashMicePaths) key.
type flashPolicy struct {
	basePolicy
	view *graph.Graph
	// viewShape is the topology mutation stamp the snapshot graph was
	// built under; while it matches, gossip rounds refresh the snapshot's
	// capacities in place instead of rebuilding the graph. boot/bootShape
	// are the same for the live-balance bootstrap view used before the
	// first gossip round (and by post-snapshot joiners).
	viewShape uint64
	boot      *graph.Graph
	bootShape uint64
	// flow is the max-flow working storage, reused across elephants (the
	// residual arena of a large view is most of what a Flash cell allocates).
	flow graph.MaxFlowScratch
}

// WantsTick: Flash refreshes its stale balance snapshot each gossip round.
func (flashPolicy) WantsTick() bool { return true }

func (p *flashPolicy) OnTick(n *Network) {
	// Source routers see balances only as fresh as the last gossip round;
	// refresh the snapshot Flash plans against.
	p.view = n.RefreshBalanceView(p.view, &p.viewShape)
}

func (p *flashPolicy) Plan(n *Network, tx workload.Tx) ([]graph.Path, []Allocation, error) {
	if tx.Value > n.cfg.FlashElephantThreshold {
		// Plan on the τ-stale gossip snapshot when available: the live view
		// is used before the first refresh tick, and when an endpoint joined
		// the network after the snapshot was taken (the joiner bootstraps
		// from fresh gossip rather than a view that predates it). The
		// bootstrap view is cached separately from the gossip snapshot and
		// refreshed in place, so a burst of pre-first-tick elephants does
		// not rebuild the graph per payment.
		view := p.view
		if view == nil || int(tx.Sender) >= view.NumNodes() || int(tx.Recipient) >= view.NumNodes() {
			p.boot = n.RefreshBalanceView(p.boot, &p.bootShape)
			view = p.boot
		}
		total, flows := view.MaxFlowWith(&p.flow, tx.Sender, tx.Recipient, tx.Value)
		if total < tx.Value-1e-9 {
			// Infeasible now on the stale view: distinct from no_route — the
			// endpoints are connected, the balances just can't carry it.
			return nil, nil, ErrNoFlow
		}
		paths := make([]graph.Path, len(flows))
		allocs := make([]Allocation, len(flows))
		for i, fp := range flows {
			paths[i] = fp.Path
			allocs[i] = Allocation{PathIdx: i, Value: fp.Amount}
		}
		return paths, allocs, nil
	}
	paths, err := micePaths(n, tx)
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, nil
	}
	idx := int(n.nextTUID) % len(paths)
	return paths, []Allocation{{PathIdx: idx, Value: tx.Value}}, nil
}

// micePaths returns the pair's precomputed mice path set: a pure function of
// the routed topology, unlike everything else Flash plans with.
func micePaths(n *Network, tx workload.Tx) ([]graph.Path, error) {
	k := n.cfg.FlashMicePaths
	key := RouteKey{Src: tx.Sender, Dst: tx.Recipient, Type: routing.KSP, K: k}
	return n.planRoutes(key, func() ([]graph.Path, error) {
		return n.kShortestPathsUnit(tx.Sender, tx.Recipient, k), nil
	})
}

// PrefetchRoutes warms a mouse's path set and nothing else: an elephant
// plans on the τ-stale balance view and never reads the mice key, and the
// pick among the mice paths consumes nextTUID — both stay on the committer.
func (p *flashPolicy) PrefetchRoutes(n *Network, tx workload.Tx) {
	if tx.Value <= n.cfg.FlashElephantThreshold {
		_, _ = micePaths(n, tx)
	}
}
