package pcn

import (
	"testing"

	"github.com/splicer-pcn/splicer/internal/channel"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// ringNetwork builds a 6-node ring with uniform funds under the
// ShortestPath scheme (no placement side effects).
func ringNetwork(t *testing.T) *Network {
	t.Helper()
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		if _, err := g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%6), 100, 100); err != nil {
			t.Fatal(err)
		}
	}
	n, err := NewNetwork(g, NewConfig(SchemeShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCloseChannelInvalidatesRoutes is the invalidation-contract regression:
// a cached path through a removed channel must never be returned again.
func TestCloseChannelInvalidatesRoutes(t *testing.T) {
	n := ringNetwork(t)
	key := RouteKey{Src: 0, Dst: 2, Type: routing.KSP, K: 1}
	compute := func() ([]graph.Path, error) {
		return routing.SelectPathsWith(n.PathFinder(), 0, 2, 1, routing.KSP)
	}
	paths, err := n.routes.GetOrCompute(key, compute)
	if err != nil || len(paths) != 1 {
		t.Fatalf("seed compute: %v paths, err %v", len(paths), err)
	}
	closed := paths[0].Edges[0] // first hop of the cached 0-1-2 path
	if err := n.CloseChannel(closed); err != nil {
		t.Fatal(err)
	}
	if n.routes.Len() != 0 {
		t.Fatalf("route cache holds %d entries after close, want 0", n.routes.Len())
	}
	paths, err = n.routes.GetOrCompute(key, compute)
	if err != nil || len(paths) == 0 {
		t.Fatalf("recompute after close: %v paths, err %v", len(paths), err)
	}
	for _, p := range paths {
		for _, eid := range p.Edges {
			if eid == closed {
				t.Fatal("cached path routes through the closed channel")
			}
		}
		if !p.Valid(n.Graph()) {
			t.Fatal("recomputed path invalid on the mutated graph")
		}
	}
}

func TestOpenChannelInvalidatesRoutes(t *testing.T) {
	n := ringNetwork(t)
	key := RouteKey{Src: 0, Dst: 3, Type: routing.KSP, K: 1}
	if _, err := n.routes.GetOrCompute(key, func() ([]graph.Path, error) {
		return routing.SelectPathsWith(n.PathFinder(), 0, 3, 1, routing.KSP)
	}); err != nil {
		t.Fatal(err)
	}
	eid, err := n.OpenChannel(0, 3, 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if n.routes.Len() != 0 {
		t.Fatal("route cache not invalidated by OpenChannel")
	}
	if n.Channel(eid).Balance(channel.Fwd) != 50 {
		t.Fatalf("new channel balance = %v, want 50", n.Channel(eid).Balance(channel.Fwd))
	}
	// The shortest 0→3 route now uses the new direct channel.
	p, ok := n.PathFinder().ShortestPath(0, 3, graph.UnitWeight)
	if !ok || p.Len() != 1 || p.Edges[0] != eid {
		t.Fatalf("direct path not found after open: ok=%v len=%d", ok, p.Len())
	}
}

func TestTopUpChannel(t *testing.T) {
	n := ringNetwork(t)
	if err := n.TopUpChannel(0, 25, 5); err != nil {
		t.Fatal(err)
	}
	ch := n.Channel(0)
	if ch.Balance(channel.Fwd) != 125 || ch.Balance(channel.Rev) != 105 {
		t.Fatalf("balances = %v/%v, want 125/105", ch.Balance(channel.Fwd), ch.Balance(channel.Rev))
	}
	e := n.Graph().Edge(0)
	if e.CapFwd != 125 || e.CapRev != 105 {
		t.Fatalf("graph caps = %v/%v, want 125/105 (path selection must see top-ups)", e.CapFwd, e.CapRev)
	}
	if err := n.TopUpChannel(0, -1, 0); err == nil {
		t.Fatal("negative top-up succeeded")
	}
	if err := n.CloseChannel(0); err != nil {
		t.Fatal(err)
	}
	if err := n.TopUpChannel(0, 1, 1); err == nil {
		t.Fatal("top-up on closed channel succeeded")
	}
}

func TestRebalanceChannel(t *testing.T) {
	n := ringNetwork(t)
	ch := n.Channel(2)
	if err := ch.Lock(channel.Fwd, 60); err != nil {
		t.Fatal(err)
	}
	if err := ch.Settle(channel.Fwd, 60); err != nil {
		t.Fatal(err)
	}
	// Now 40/160: a full rebalance evens the split.
	if moved := n.RebalanceChannel(2, 1); moved != 60 {
		t.Fatalf("moved = %v, want 60", moved)
	}
	if ch.Balance(channel.Fwd) != 100 || ch.Balance(channel.Rev) != 100 {
		t.Fatalf("balances = %v/%v, want 100/100", ch.Balance(channel.Fwd), ch.Balance(channel.Rev))
	}
}

func TestDepartNodeClosesChannels(t *testing.T) {
	n := ringNetwork(t)
	if err := n.DepartNode(1); err != nil {
		t.Fatal(err)
	}
	if !n.Departed(1) {
		t.Fatal("Departed(1) false")
	}
	if n.Graph().Degree(1) != 0 {
		t.Fatalf("departed node still has %d edges", n.Graph().Degree(1))
	}
	if !n.Channel(0).Closed() || !n.Channel(1).Closed() {
		t.Fatal("incident channels not closed on departure")
	}
	// The ring minus one node is a line; 0→2 detours the long way.
	p, ok := n.PathFinder().ShortestPath(0, 2, graph.UnitWeight)
	if !ok || p.Len() != 4 {
		t.Fatalf("detour after departure: ok=%v len=%d, want 4", ok, p.Len())
	}
	if err := n.DepartNode(1); err == nil {
		t.Fatal("double departure succeeded")
	}
	if _, err := n.OpenChannel(0, 1, 10, 10); err == nil {
		t.Fatal("open to departed node succeeded")
	}
}

// TestJoinNodeRoutable: a joined node becomes routable once connected, and
// the shared PathFinder (created before the join) serves it.
func TestJoinNodeRoutable(t *testing.T) {
	n := ringNetwork(t)
	pf := n.PathFinder() // force creation before the join
	v := n.JoinNode()
	if v != 6 {
		t.Fatalf("joined node id = %d, want 6", v)
	}
	if _, err := n.OpenChannel(v, 0, 30, 30); err != nil {
		t.Fatal(err)
	}
	p, ok := pf.ShortestPath(3, v, graph.UnitWeight)
	if !ok || p.Len() != 4 {
		t.Fatalf("path to joined node: ok=%v len=%d, want 4", ok, p.Len())
	}
}

// TestRePlaceHubsAfterHubDeparture: a Splicer network whose hub departs
// re-homes the orphaned clients on the next re-placement.
func TestRePlaceHubsAfterHubDeparture(t *testing.T) {
	g := graph.New(12)
	// Two dense centers (0 and 1) bridged, with 5 spokes each.
	mustEdge := func(u, v graph.NodeID) {
		if _, err := g.AddEdge(u, v, 200, 200); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(0, 1)
	for i := 2; i < 7; i++ {
		mustEdge(0, graph.NodeID(i))
	}
	for i := 7; i < 12; i++ {
		mustEdge(1, graph.NodeID(i))
	}
	// Cross links so the graph stays connected when a center departs.
	mustEdge(2, 7)
	mustEdge(3, 8)
	cfg := NewConfig(SchemeSplicer)
	cfg.NumHubCandidates = 2
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hubs := n.Hubs()
	if len(hubs) == 0 {
		t.Fatal("setup placed no hubs")
	}
	dead := hubs[0]
	if err := n.DepartNode(dead); err != nil {
		t.Fatal(err)
	}
	for _, h := range n.Hubs() {
		if h == dead {
			t.Fatal("departed hub still listed")
		}
	}
	if err := n.RePlaceHubs(); err != nil {
		t.Fatal(err)
	}
	if len(n.Hubs()) == 0 {
		t.Fatal("re-placement produced no hubs")
	}
	for _, h := range n.Hubs() {
		if n.Departed(h) {
			t.Fatal("re-placement selected a departed node as hub")
		}
	}
	// Every active non-hub client is re-homed to an active hub.
	for v := 0; v < n.Graph().NumNodes(); v++ {
		id := graph.NodeID(v)
		if n.Departed(id) {
			continue
		}
		if h, ok := n.hubOf[id]; ok && n.Departed(h) {
			t.Fatalf("client %d still assigned to departed hub %d", id, h)
		}
	}
}

// TestDynamicRunSurvivesChannelClose drives a payment trace while closing a
// channel mid-run through the stepwise run API.
func TestDynamicRunSurvivesChannelClose(t *testing.T) {
	n := ringNetwork(t)
	trace := []workload.Tx{
		{ID: 0, Sender: 0, Recipient: 2, Value: 5, Arrival: 0.1, Deadline: 3.1},
		{ID: 1, Sender: 3, Recipient: 5, Value: 5, Arrival: 1.5, Deadline: 4.5},
	}
	horizon := 5.0
	if err := n.BeginRun(horizon); err != nil {
		t.Fatal(err)
	}
	for _, tx := range trace {
		if err := n.ScheduleArrival(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.At(1.0, func() {
		if err := n.CloseChannel(0); err != nil {
			t.Errorf("mid-run close: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	res, err := n.Execute(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 2 {
		t.Fatalf("Generated = %d, want 2", res.Generated)
	}
	if res.Completed < 1 {
		t.Fatalf("Completed = %d, want >= 1 (ring has detours)", res.Completed)
	}
}
