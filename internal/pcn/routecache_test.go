package pcn

import (
	"fmt"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/workload"
)

func TestRouteCacheGetPut(t *testing.T) {
	c := NewRouteCache()
	key := RouteKey{Src: 0, Dst: 1, Type: routing.EDW, K: 5}
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	p := graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []graph.EdgeID{0}}
	c.Put(key, []graph.Path{p})
	got, ok := c.Get(key)
	if !ok || len(got) != 1 || !got[0].Equal(p) {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
	// Distinct strategies and k values for the same pair are separate slots.
	if _, ok := c.Get(RouteKey{Src: 0, Dst: 1, Type: routing.KSP, K: 5}); ok {
		t.Fatal("KSP key collided with EDW entry")
	}
	if _, ok := c.Get(RouteKey{Src: 0, Dst: 1, Type: routing.EDW, K: 3}); ok {
		t.Fatal("k=3 key collided with k=5 entry")
	}
}

func TestRouteCacheGetOrCompute(t *testing.T) {
	c := NewRouteCache()
	key := RouteKey{Src: 2, Dst: 3, Type: routing.KSP, K: 1}
	calls := 0
	compute := func() ([]graph.Path, error) {
		calls++
		return []graph.Path{{Nodes: []graph.NodeID{2, 3}, Edges: []graph.EdgeID{7}}}, nil
	}
	for i := 0; i < 3; i++ {
		paths, err := c.GetOrCompute(key, compute)
		if err != nil || len(paths) != 1 {
			t.Fatalf("GetOrCompute = %v, %v", paths, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestRouteCacheCachesUnroutable(t *testing.T) {
	c := NewRouteCache()
	key := RouteKey{Src: 4, Dst: 5, Type: ComposedRoutes, K: 1}
	calls := 0
	for i := 0; i < 2; i++ {
		paths, err := c.GetOrCompute(key, func() ([]graph.Path, error) {
			calls++
			return nil, nil // unroutable
		})
		if err != nil || paths != nil {
			t.Fatalf("GetOrCompute = %v, %v", paths, err)
		}
	}
	if calls != 1 {
		t.Fatalf("unroutable result recomputed %d times, want cached after 1", calls)
	}
}

func TestRouteCacheErrorsNotCached(t *testing.T) {
	c := NewRouteCache()
	key := RouteKey{Src: 6, Dst: 7, Type: routing.EDS, K: 2}
	calls := 0
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrCompute(key, func() ([]graph.Path, error) {
			calls++
			return nil, fmt.Errorf("boom")
		}); err == nil {
			t.Fatal("error swallowed")
		}
	}
	if calls != 2 {
		t.Fatalf("failed compute cached after %d calls", calls)
	}
}

func TestRouteCacheInvalidate(t *testing.T) {
	c := NewRouteCache()
	for i := 0; i < 4; i++ {
		c.Put(RouteKey{Src: graph.NodeID(i), Dst: graph.NodeID(i + 1), Type: routing.EDW, K: 5}, nil)
	}
	if c.Len() != 4 || c.Generation() != 0 {
		t.Fatalf("len=%d gen=%d", c.Len(), c.Generation())
	}
	c.Invalidate()
	if c.Len() != 0 || c.Generation() != 1 {
		t.Fatalf("after invalidate len=%d gen=%d, want 0/1", c.Len(), c.Generation())
	}
}

// reshapePolicy caches a route in Setup before reshaping the topology, the
// way a buggy out-of-package policy might; the reshape hooks must evict it.
type reshapePolicy struct {
	basePolicy
	keyBeforeReshape RouteKey
	genBefore        uint64
}

func (p *reshapePolicy) Setup(n *Network) error {
	p.keyBeforeReshape = RouteKey{Src: 0, Dst: 1, Type: routing.KSP, K: 1}
	if _, err := n.routes.GetOrCompute(p.keyBeforeReshape, func() ([]graph.Path, error) {
		pa, ok := graph.NewPathFinder(n.Graph()).ShortestPath(0, 1, graph.UnitWeight)
		if !ok {
			return nil, fmt.Errorf("0-1 unreachable")
		}
		return []graph.Path{pa}, nil
	}); err != nil {
		return err
	}
	p.genBefore = n.routes.Generation()
	hub := graph.NodeID(n.Graph().NumNodes() - 1)
	n.SetHubs([]graph.NodeID{hub})
	for i := 0; i < n.Graph().NumNodes()-1; i++ {
		n.SetManagingHub(graph.NodeID(i), hub)
	}
	n.ReshapeMultiStar() // adds client→hub channels: cached paths are stale
	return nil
}

func (p *reshapePolicy) Plan(n *Network, tx workload.Tx) ([]graph.Path, []Allocation, error) {
	pa, ok := graph.NewPathFinder(n.Graph()).ShortestPath(tx.Sender, tx.Recipient, graph.UnitWeight)
	if !ok {
		return nil, nil, nil
	}
	return []graph.Path{pa}, []Allocation{{PathIdx: 0, Value: tx.Value}}, nil
}

func TestRouteCacheInvalidatedWhenSetupReshapesTopology(t *testing.T) {
	g, _ := testGraphAndTrace(t, 11, 20, 10, 1)
	pol := &reshapePolicy{basePolicy: basePolicy{SchemeShortestPath}}
	cfg := NewConfig(SchemeShortestPath)
	cfg.Policy = pol
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n.routes.Generation() <= pol.genBefore {
		t.Fatalf("generation %d not bumped past %d by ReshapeMultiStar", n.routes.Generation(), pol.genBefore)
	}
	if n.routes.Len() != 0 {
		t.Fatalf("%d stale entries survived the reshape", n.routes.Len())
	}
	if _, ok := n.routes.Get(pol.keyBeforeReshape); ok {
		t.Fatal("pre-reshape path set still served after topology mutation")
	}
}

func TestCapitalizeHubsInvalidatesRoutes(t *testing.T) {
	g, _ := testGraphAndTrace(t, 12, 20, 10, 1)
	cfg := NewConfig(SchemeSplicer)
	cfg.Hubs = []graph.NodeID{0, 1}
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := RouteKey{Src: 2, Dst: 3, Type: routing.EDW, K: 2}
	n.routes.Put(key, nil)
	gen := n.routes.Generation()
	n.CapitalizeHubs() // rescales hub channel funds: capacity-aware paths stale
	if n.routes.Generation() <= gen {
		t.Fatal("CapitalizeHubs did not invalidate the route cache")
	}
	if _, ok := n.routes.Get(key); ok {
		t.Fatal("stale capacity-aware path set survived CapitalizeHubs")
	}
}

// Repeat payments between the same pair must hit the cache instead of
// recomputing the scheme's path selection.
func TestPoliciesReuseCachedRoutes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeSplicer, SchemeSpider, SchemeA2L, SchemeLandmark, SchemeShortestPath} {
		g, trace := testGraphAndTrace(t, 13, 30, 40, 4)
		n, err := NewNetwork(g, NewConfig(scheme))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if _, err := n.Run(trace); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if n.routes.Hits() == 0 {
			t.Errorf("%v: route cache never hit over %d payments", scheme, len(trace))
		}
		if n.routes.Misses() == 0 {
			t.Errorf("%v: route cache never missed (nothing was computed?)", scheme)
		}
	}
}
