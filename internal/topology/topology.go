// Package topology generates the payment channel network graphs used by the
// Splicer evaluation: Watts–Strogatz small-world graphs (the paper follows
// Spider's benchmark, generating channel connections with ROLL [26] on the
// Watts–Strogatz model), Barabási–Albert scale-free graphs, and the
// star / multi-star hub topologies of §III-A.
package topology

import (
	"fmt"
	"slices"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
)

// CapacityFunc returns the funds to deposit on each side of a new channel.
// It is invoked once per channel.
type CapacityFunc func() (fwd, rev float64)

// WattsStrogatz generates a connected small-world graph over n nodes. Each
// node starts connected to its k nearest ring neighbors (k must be even and
// >= 2), then each edge is rewired with probability beta. Rewiring that
// would create a duplicate edge or self-loop is skipped, matching the
// standard construction. Capacities come from capFn.
func WattsStrogatz(src *rng.Source, n, k int, beta float64, capFn CapacityFunc) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: n must be positive, got %d", n)
	}
	if k < 2 || k%2 != 0 || k >= n {
		return nil, fmt.Errorf("topology: k must be even, >= 2 and < n; got k=%d n=%d", k, n)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("topology: beta must be in [0,1], got %v", beta)
	}
	g := graph.New(n)
	type pair struct{ u, v int }
	exists := make(map[pair]bool, n*k/2)
	norm := func(u, v int) pair {
		if u > v {
			u, v = v, u
		}
		return pair{u, v}
	}
	// Ring lattice.
	var lattice []pair
	for i := 0; i < n; i++ {
		for j := 1; j <= k/2; j++ {
			p := norm(i, (i+j)%n)
			if !exists[p] {
				exists[p] = true
				lattice = append(lattice, p)
			}
		}
	}
	// Rewire: for each lattice edge, with probability beta replace the far
	// endpoint with a uniform random node.
	for _, p := range lattice {
		u, v := p.u, p.v
		if src.Bool(beta) {
			// Try a few times to find a valid new endpoint.
			for attempt := 0; attempt < 8; attempt++ {
				w := src.IntN(n)
				if w == u || exists[norm(u, w)] {
					continue
				}
				delete(exists, norm(u, v))
				exists[norm(u, w)] = true
				v = w
				break
			}
		}
		fwd, rev := capFn()
		if _, err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), fwd, rev); err != nil {
			return nil, err
		}
	}
	// Watts–Strogatz with k>=2 is connected with very high probability; if
	// rewiring disconnected it, stitch components back with extra channels.
	ensureConnected(src, g, capFn)
	return g, nil
}

// BarabasiAlbert generates a connected scale-free graph: start from a small
// clique of m0 = m+1 nodes, then attach each new node with m edges chosen by
// preferential attachment. This approximates the degree distribution the
// ROLL generator samples from.
func BarabasiAlbert(src *rng.Source, n, m int, capFn CapacityFunc) (*graph.Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("topology: m must be >= 1, got %d", m)
	}
	if n <= m {
		return nil, fmt.Errorf("topology: n must exceed m; got n=%d m=%d", n, m)
	}
	g := graph.New(n)
	// Repeated-endpoint list: a node appears once per incident edge, so
	// sampling uniformly from it is preferential attachment.
	var endpoints []int
	addEdge := func(u, v int) error {
		fwd, rev := capFn()
		if _, err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), fwd, rev); err != nil {
			return err
		}
		endpoints = append(endpoints, u, v)
		return nil
	}
	// Seed clique on nodes 0..m.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			if err := addEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	// Edges are added in draw order, never by ranging over a map: edge ids,
	// capacity draws and adjacency order all follow it, so iteration order
	// would make one seed yield a different graph per call.
	chosen := make([]int, 0, m)
	for u := m + 1; u < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			v := endpoints[src.IntN(len(endpoints))]
			if v == u || slices.Contains(chosen, v) {
				continue
			}
			chosen = append(chosen, v)
		}
		for _, v := range chosen {
			if err := addEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// ErdosRenyi generates a connected G(n, p) random graph: every unordered
// node pair gets a channel independently with probability p. The scenario
// engine offers it as the unstructured baseline next to the small-world and
// scale-free generators; ensureConnected stitches stray components so the
// result is always routable.
func ErdosRenyi(src *rng.Source, n int, p float64, capFn CapacityFunc) (*graph.Graph, error) {
	if n <= 1 {
		return nil, fmt.Errorf("topology: n must be >= 2, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("topology: p must be in [0,1], got %v", p)
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !src.Bool(p) {
				continue
			}
			fwd, rev := capFn()
			if _, err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), fwd, rev); err != nil {
				return nil, err
			}
		}
	}
	ensureConnected(src, g, capFn)
	return g, nil
}

// HierarchicalHubSpoke builds a two-tier hub hierarchy: `cores` top-level
// hubs form a ring backbone (plus random chords for path diversity, as in
// MultiStar), each core serves hubsPerCore mid-tier hubs, and each mid-tier
// hub serves clientsPerHub leaf clients. Node ids are laid out tier by tier
// — cores first, then hubs, then clients — and the returned slice lists the
// hub-tier nodes (cores + mid-tier hubs), e.g. as placement candidates or to
// exclude the infrastructure tier from a workload's client set.
//
// coreCapFn sizes core-core links, hubCapFn core-hub links, capFn the leaf
// channels; hierarchical deployments fund the backbone much more heavily
// than the edge.
func HierarchicalHubSpoke(src *rng.Source, cores, hubsPerCore, clientsPerHub int, coreCapFn, hubCapFn, capFn CapacityFunc) (*graph.Graph, []graph.NodeID, error) {
	if cores < 1 || hubsPerCore < 1 || clientsPerHub < 1 {
		return nil, nil, fmt.Errorf("topology: hub-spoke tiers must be >= 1, got cores=%d hubs/core=%d clients/hub=%d",
			cores, hubsPerCore, clientsPerHub)
	}
	numHubs := cores * hubsPerCore
	n := cores + numHubs + numHubs*clientsPerHub
	g := graph.New(n)
	// Core backbone: ring plus ~cores/2 random chords.
	for i := 0; i < cores; i++ {
		j := (i + 1) % cores
		if i == j || (cores == 2 && i > j) {
			continue
		}
		fwd, rev := coreCapFn()
		if _, err := g.AddEdge(graph.NodeID(i), graph.NodeID(j), fwd, rev); err != nil {
			return nil, nil, err
		}
	}
	for c := 0; c < cores/2; c++ {
		u, v := src.IntN(cores), src.IntN(cores)
		if u == v || g.HasEdgeBetween(graph.NodeID(u), graph.NodeID(v)) {
			continue
		}
		fwd, rev := coreCapFn()
		if _, err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), fwd, rev); err != nil {
			return nil, nil, err
		}
	}
	// Mid tier: hub h attaches to its core, round-robin.
	for h := 0; h < numHubs; h++ {
		hub := graph.NodeID(cores + h)
		core := graph.NodeID(h % cores)
		fwd, rev := hubCapFn()
		if _, err := g.AddEdge(hub, core, fwd, rev); err != nil {
			return nil, nil, err
		}
	}
	// Leaves: client i attaches to hub i%numHubs.
	for i := 0; i < numHubs*clientsPerHub; i++ {
		client := graph.NodeID(cores + numHubs + i)
		hub := graph.NodeID(cores + i%numHubs)
		fwd, rev := capFn()
		if _, err := g.AddEdge(client, hub, fwd, rev); err != nil {
			return nil, nil, err
		}
	}
	hubTier := make([]graph.NodeID, cores+numHubs)
	for i := range hubTier {
		hubTier[i] = graph.NodeID(i)
	}
	return g, hubTier, nil
}

// ensureConnected adds channels between components until the graph is
// connected. Used as a safety net after random generation.
func ensureConnected(src *rng.Source, g *graph.Graph, capFn CapacityFunc) {
	n := g.NumNodes()
	if n <= 1 {
		return
	}
	for {
		dist := g.BFSHops(0)
		var orphan graph.NodeID = -1
		for i, d := range dist {
			if d < 0 {
				orphan = graph.NodeID(i)
				break
			}
		}
		if orphan < 0 {
			return
		}
		// Connect the orphan's component to a reachable node.
		var target graph.NodeID
		for {
			target = graph.NodeID(src.IntN(n))
			if dist[target] >= 0 {
				break
			}
		}
		fwd, rev := capFn()
		if _, err := g.AddEdge(orphan, target, fwd, rev); err != nil {
			// Only possible errors are self-loop/out-of-range, both
			// excluded by construction.
			panic(err)
		}
	}
}

// TopDegreeNodes returns the ids of the k highest-degree nodes, ties broken
// by lower id. The paper's candidate smooth nodes are the "better" nodes for
// outsourcing routing (more client connections, more funds); degree is the
// excellence proxy used when no vote data is available.
func TopDegreeNodes(g *graph.Graph, k int) []graph.NodeID {
	ids := make([]graph.NodeID, g.NumNodes())
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	return TopDegreeNodesOf(g, ids, k)
}

// TopDegreeNodesOf is TopDegreeNodes restricted to an eligible subset (the
// dynamic-network layer excludes departed nodes and split-off components
// when re-running placement). The subset is reordered in place.
func TopDegreeNodesOf(g *graph.Graph, ids []graph.NodeID, k int) []graph.NodeID {
	n := len(ids)
	if k > n {
		k = n
	}
	// Selection by partial sort (n is small enough; keep it simple and
	// deterministic).
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			dj, db := g.Degree(ids[j]), g.Degree(ids[best])
			if dj > db || (dj == db && ids[j] < ids[best]) {
				best = j
			}
		}
		ids[i], ids[best] = ids[best], ids[i]
	}
	return ids[:k]
}
