// Dynamic-network mutators: the live-topology operations the
// internal/dynamics driver applies mid-run — channel opens/closes/top-ups,
// node arrivals/departures, and online hub re-placement. Every mutation of
// the routed topology ends in InvalidateRoutes, extending the RouteCache
// invalidation contract to dynamic mutations.
//
// Every mutator additionally brackets itself with pauseSpeculation/
// resumeSpeculation (a nil check when no speculative planning pool is
// armed): the pool's workers read the graph, the hub maps and the route
// caches concurrently, so mutations must quiesce in-flight plans first (see
// speculate.go). The pairs nest, covering DepartNode→CloseChannel and
// RePlaceHubs→ReshapeMultiStar/CapitalizeHubs.

package pcn

import (
	"fmt"

	"github.com/splicer-pcn/splicer/internal/channel"
	"github.com/splicer-pcn/splicer/internal/graph"
)

// OpenChannel opens a new channel between two active nodes mid-run, funded
// with fundU on u's side and fundV on v's side. The graph edge and the live
// channel are created in lockstep so EdgeID-indexed state stays aligned.
func (n *Network) OpenChannel(u, v graph.NodeID, fundU, fundV float64) (graph.EdgeID, error) {
	if n.departed[u] || n.departed[v] {
		return 0, fmt.Errorf("pcn: open %d-%d: endpoint departed", u, v)
	}
	if fundU < 0 || fundV < 0 {
		return 0, fmt.Errorf("pcn: open %d-%d: negative funding", u, v)
	}
	n.pauseSpeculation()
	defer n.resumeSpeculation()
	eid, err := n.g.AddEdge(u, v, fundU, fundV)
	if err != nil {
		return 0, err
	}
	ch, err := channel.New(eid, u, v, fundU, fundV)
	if err != nil {
		panic(err) // funds validated above
	}
	ch.QueueLimit = n.cfg.QueueLimit
	ch.MaxInFlight = n.cfg.MaxInFlightTUs
	n.chans = append(n.chans, ch)
	if len(n.chans) != n.g.NumEdges() {
		panic("pcn: channel array diverged from graph edges")
	}
	n.recordCapital(fundU + fundV)
	n.InvalidateRoutes()
	return eid, nil
}

// CloseChannel closes a channel mid-run: the edge leaves the topology, the
// channel stops accepting new locks, and every queued TU aborts. Funds
// locked in flight remain settleable/refundable (the HTLC is on-chain
// enforceable through the closing transaction), so in-transit payments
// crossing the channel complete or unwind normally.
func (n *Network) CloseChannel(id graph.EdgeID) error {
	if int(id) < 0 || int(id) >= len(n.chans) {
		return fmt.Errorf("pcn: close of unknown channel %d", id)
	}
	ch := n.chans[id]
	if ch.Closed() {
		return fmt.Errorf("pcn: channel %d already closed", id)
	}
	n.pauseSpeculation()
	defer n.resumeSpeculation()
	if err := n.g.RemoveEdge(id); err != nil {
		return err
	}
	// Close before unwinding the queues: aborting a TU can cascade (sibling
	// aborts, queue drains on refunded channels) into fresh forwarding
	// attempts that must already see the channel as unusable.
	ch.Close()
	for _, dir := range []channel.Direction{channel.Fwd, channel.Rev} {
		for _, q := range ch.Queued(dir) {
			if tu := waitingTU(q, ch, dir); tu != nil {
				n.abortTU(tu, "channel_closed")
			}
		}
	}
	n.InvalidateRoutes()
	return nil
}

// TopUpChannel deposits additional funds on both sides of an open channel
// (a splice-in). The graph's static capacities grow with the deposit so
// path selection sees the refreshed funding, and waiting TUs get a drain
// attempt against the new funds.
func (n *Network) TopUpChannel(id graph.EdgeID, addU, addV float64) error {
	if int(id) < 0 || int(id) >= len(n.chans) {
		return fmt.Errorf("pcn: top-up of unknown channel %d", id)
	}
	if addU < 0 || addV < 0 {
		return fmt.Errorf("pcn: negative top-up on channel %d", id)
	}
	ch := n.chans[id]
	if ch.Closed() {
		return fmt.Errorf("pcn: top-up on closed channel %d", id)
	}
	n.pauseSpeculation()
	defer n.resumeSpeculation()
	if err := ch.Deposit(channel.Fwd, addU); err != nil {
		return err
	}
	if err := ch.Deposit(channel.Rev, addV); err != nil {
		return err
	}
	n.recordCapital(addU + addV)
	e := n.g.Edge(id)
	n.g.SetCapacity(id, e.CapFwd+addU, e.CapRev+addV)
	n.InvalidateRoutes()
	n.drainQueue(ch, channel.Fwd)
	n.drainQueue(ch, channel.Rev)
	return nil
}

// RebalanceChannel moves `fraction` of the spendable-balance gap of a
// channel from its richer to its poorer side (off-chain circular
// rebalancing, abstracted to its effect) and returns the amount moved.
// Depleted directions regaining funds get a queue drain attempt. The static
// graph capacities are untouched: rebalancing shifts the split, not the
// total, and path selection works from the funding-time gossip view.
func (n *Network) RebalanceChannel(id graph.EdgeID, fraction float64) float64 {
	if int(id) < 0 || int(id) >= len(n.chans) {
		return 0
	}
	ch := n.chans[id]
	n.pauseSpeculation()
	defer n.resumeSpeculation()
	moved := ch.Rebalance(fraction)
	if moved > 0 {
		n.drainQueue(ch, channel.Fwd)
		n.drainQueue(ch, channel.Rev)
	}
	return moved
}

// JoinNode adds a new isolated node to the network (an arrival). The caller
// opens its channels via OpenChannel; the node participates in placement
// and demand once connected. Shared PathFinder scratch state grows lazily.
func (n *Network) JoinNode() graph.NodeID {
	n.pauseSpeculation()
	defer n.resumeSpeculation()
	return n.g.AddNode()
}

// DepartNode removes a node from the network (a departure): all its
// channels close and it stops being eligible as an endpoint, hub candidate
// or client. If the node was a hub it loses the role immediately, but its
// former clients keep their stale assignment until the next re-placement —
// clients learn about a vanished hub asynchronously, which is exactly the
// degradation online re-placement exists to repair.
func (n *Network) DepartNode(v graph.NodeID) error {
	if int(v) < 0 || int(v) >= n.g.NumNodes() {
		return fmt.Errorf("pcn: departure of unknown node %d", v)
	}
	if n.departed[v] {
		return fmt.Errorf("pcn: node %d already departed", v)
	}
	n.pauseSpeculation()
	defer n.resumeSpeculation()
	n.departed[v] = true
	// CloseChannel mutates adjacency; snapshot the incident list first.
	for _, eid := range append([]graph.EdgeID(nil), n.g.Incident(v)...) {
		if err := n.CloseChannel(eid); err != nil {
			return err
		}
	}
	if n.isHub[v] {
		delete(n.isHub, v)
		hubs := n.hubs[:0]
		for _, h := range n.hubs {
			if h != v {
				hubs = append(hubs, h)
			}
		}
		n.hubs = hubs
	}
	return nil
}

// RejoinNode reverses a departure: the node becomes eligible again as an
// endpoint, hub candidate and client. Its former channels stay closed
// (channel closing is on-chain final); the caller re-opens connectivity via
// OpenChannel, whose funding records as fresh capital. A rejoined former hub
// does not regain the role automatically — that is online re-placement's
// job, which is exactly the recovery story the hub-outage attack measures.
func (n *Network) RejoinNode(v graph.NodeID) error {
	if int(v) < 0 || int(v) >= n.g.NumNodes() {
		return fmt.Errorf("pcn: rejoin of unknown node %d", v)
	}
	if !n.departed[v] {
		return fmt.Errorf("pcn: node %d has not departed", v)
	}
	n.pauseSpeculation()
	defer n.resumeSpeculation()
	delete(n.departed, v)
	return nil
}

// Departed reports whether a node has left the network.
func (n *Network) Departed(v graph.NodeID) bool { return n.departed[v] }

// RePlaceHubs re-runs the placement pipeline on the evolved topology and
// adopts the new hub set online: client assignments refresh (orphans of
// departed hubs re-home, joiners onboard), missing client-hub channels open
// (ReshapeMultiStar), and newly promoted hubs pledge capital
// (CapitalizeHubs; channels boosted in an earlier placement keep their
// pledge and are not boosted twice). This is what turns Splicer's placement
// from a preprocessing step into an online algorithm.
func (n *Network) RePlaceHubs() error {
	n.pauseSpeculation()
	defer n.resumeSpeculation()
	hubs, err := n.placeHubs()
	if err != nil {
		return err
	}
	n.hubs = nil
	clear(n.isHub)
	clear(n.hubOf)
	n.SetHubs(hubs)
	n.assignClients()
	n.ReshapeMultiStar()
	n.CapitalizeHubs()
	return nil
}
