// Snapshot publication points. A serving deployment (internal/serve) wraps
// a live Network whose writers — the dynamics driver's churn, online
// re-placement, top-ups — keep mutating the topology, while query workers
// read pinned epoch snapshots (graph.SnapshotStore). Publication rides the
// existing invalidation contract: every mutation of the routed topology
// already funnels through InvalidateRoutes, so enabling snapshots simply
// makes that call also publish the next epoch. A network that never calls
// EnableSnapshots (every batch experiment) carries a nil store and pays
// nothing — the golden panels cannot move.

package pcn

import "github.com/splicer-pcn/splicer/internal/graph"

// EnableSnapshots attaches an epoch-snapshot store to the network and
// publishes the first epoch. From then on every topology invalidation
// (channel open/close, top-up, reshape, re-placement) publishes the next
// epoch atomically; readers use the store's Acquire / Release. The label
// roots follow the network's hub/label-seed set across re-placements.
// Idempotent; returns the store.
func (n *Network) EnableSnapshots() *graph.SnapshotStore {
	if n.snapshots == nil {
		n.snapshots = graph.NewSnapshotStore(n.labelRoots())
		n.snapRootGen = n.rootGen
		n.snapshots.Publish(n.g, true)
	}
	return n.snapshots
}

// PublishSnapshot forces a fresh epoch reflecting the current topology AND
// capacities. The automatic publication on InvalidateRoutes lets
// capacity-only deltas share the current epoch (gossip-stale balances are
// fine for routing); a serving deployment that wants a hard refresh — e.g.
// on a balance-gossip tick — calls this. No-op (0, false) without a store.
func (n *Network) PublishSnapshot() (uint64, bool) {
	if n.snapshots == nil {
		return 0, false
	}
	n.syncSnapshotRoots()
	return n.snapshots.Publish(n.g, true)
}

// publishSnapshot is the InvalidateRoutes hook: publish the next epoch if a
// store is attached, forcing when the label-root set changed (a re-placement
// must re-label even on an unchanged graph shape).
func (n *Network) publishSnapshot() {
	if n.snapshots == nil {
		return
	}
	force := n.syncSnapshotRoots()
	n.snapshots.Publish(n.g, force)
}

// syncSnapshotRoots pushes the network's current label roots into the store
// when they changed, reporting whether they did.
func (n *Network) syncSnapshotRoots() bool {
	if n.snapRootGen == n.rootGen {
		return false
	}
	n.snapshots.SetRoots(n.labelRoots())
	n.snapRootGen = n.rootGen
	return true
}

// labelRoots is the snapshot-label root set: hubs plus policy-registered
// seeds, the same roots HubLabels uses.
func (n *Network) labelRoots() []graph.NodeID {
	roots := make([]graph.NodeID, 0, len(n.hubs)+len(n.labelSeeds))
	roots = append(roots, n.hubs...)
	roots = append(roots, n.labelSeeds...)
	return roots
}
