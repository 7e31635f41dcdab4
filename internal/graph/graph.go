// Package graph implements the graph algorithms Splicer's placement and
// routing layers are built on: shortest paths, Yen's k-shortest paths,
// widest (maximin-capacity) paths, edge-disjoint path extraction, and Dinic
// max-flow for the Flash baseline.
//
// A payment channel network is modeled as an undirected multigraph of nodes
// connected by channels, but every channel has independent per-direction
// state, so the algorithms here operate on a directed view: an undirected
// edge {u, v} contributes arcs u→v and v→u whose weights and capacities may
// differ.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a node. IDs are dense indices in [0, NumNodes).
type NodeID int

// EdgeID identifies an undirected edge (channel). IDs are dense indices in
// [0, NumEdges).
type EdgeID int

// Edge is an undirected edge between two nodes with a per-direction capacity.
// CapFwd is the capacity in the U→V direction and CapRev in the V→U
// direction; for PCNs these are the channel balances on each side.
type Edge struct {
	ID     EdgeID
	U, V   NodeID
	CapFwd float64
	CapRev float64
}

// Capacity returns the capacity of the edge in the direction from node
// `from`. It panics if from is not an endpoint.
func (e Edge) Capacity(from NodeID) float64 {
	switch from {
	case e.U:
		return e.CapFwd
	case e.V:
		return e.CapRev
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", from, e.ID))
	}
}

// Other returns the endpoint opposite to `from`. It panics if from is not an
// endpoint.
func (e Edge) Other(from NodeID) NodeID {
	switch from {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", from, e.ID))
	}
}

// Graph is an undirected multigraph with per-direction edge capacities.
// The zero value is an empty graph ready to use.
//
// The graph is mutable: nodes can be appended (AddNode) and edges added
// (AddEdge) or removed (RemoveEdge) at any time, which the dynamic-network
// layer uses to model channel opens/closes and node churn. Edge IDs are
// never reused: a removed edge leaves a tombstone slot so that EdgeID-indexed
// side tables (the PCN's channel array) stay aligned across removals.
type Graph struct {
	edges   []Edge
	adj     [][]EdgeID // node -> incident edge ids (live edges only)
	removed []bool     // edge id -> tombstoned by RemoveEdge
	numLive int
	// mutations counts adjacency-shape changes (AddNode/AddEdge/RemoveEdge)
	// and doubles as the shape-journal sequence number; capMutations
	// additionally counts capacity rewrites (SetCapacity). Since PR 6 the
	// packed CSR adjacency is graph-owned and maintained incrementally, so
	// the counters no longer invalidate anything — they remain as cheap
	// change detectors for external caches.
	mutations    uint64
	capMutations uint64
	// csr is the packed primary adjacency (see csr.go), built lazily on the
	// first path query and updated in place by the mutators below.
	csr csrState
	// journal records shape mutations for derived-structure observers (see
	// journal.go); journalBase is the sequence number of journal[0].
	journal     []Mutation
	journalBase uint64
}

// Mutations returns the adjacency mutation counter.
func (g *Graph) Mutations() uint64 { return g.mutations }

// EnsureCSR forces the lazy packed-adjacency build now. Path queries trigger
// the build implicitly on first use; callers about to share the graph with
// concurrent readers (speculative planning workers, each holding a private
// PathFinder over this graph) call this from the owning goroutine first so
// no reader races the one-time construction. After the build the CSR is
// maintained in place by the mutators, which such callers must serialize
// against readers themselves (see pcn's speculation quiesce contract).
func (g *Graph) EnsureCSR() { g.csrEnsure() }

// CapMutations returns the combined adjacency+capacity mutation counter.
func (g *Graph) CapMutations() uint64 { return g.mutations + g.capMutations }

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	return &Graph{adj: make([][]EdgeID, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of edge slots ever allocated, including
// removed-edge tombstones; valid EdgeIDs are [0, NumEdges). Use NumLiveEdges
// for the count of edges currently in the topology.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumLiveEdges returns the number of edges not removed.
func (g *Graph) NumLiveEdges() int { return g.numLive }

// AddNode appends a new isolated node and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.adj = append(g.adj, nil)
	g.mutations++
	id := NodeID(len(g.adj) - 1)
	g.journalAppend(Mutation{Kind: MutAddNode, Edge: -1, U: id, V: -1})
	if g.csr.ok {
		g.csrAddNode()
	}
	return id
}

// AddEdge adds an undirected edge between u and v with the given directional
// capacities and returns its ID. Self-loops are rejected.
func (g *Graph) AddEdge(u, v NodeID, capFwd, capRev float64) (EdgeID, error) {
	if u == v {
		return 0, fmt.Errorf("graph: self-loop on node %d", u)
	}
	if int(u) < 0 || int(u) >= len(g.adj) || int(v) < 0 || int(v) >= len(g.adj) {
		return 0, fmt.Errorf("graph: endpoint out of range: %d-%d with %d nodes", u, v, len(g.adj))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v, CapFwd: capFwd, CapRev: capRev})
	g.removed = append(g.removed, false)
	g.adj[u] = append(g.adj[u], id)
	g.adj[v] = append(g.adj[v], id)
	g.numLive++
	g.mutations++
	g.journalAppend(Mutation{Kind: MutAddEdge, Edge: id, U: u, V: v})
	if g.csr.ok {
		g.csrAddEdge(id)
	}
	return id, nil
}

// RemoveEdge removes an edge (a channel close) from the topology. The edge's
// ID slot is tombstoned, not reused: Edge(id) keeps reporting the endpoints
// (so in-flight bookkeeping can still resolve them) but the edge disappears
// from adjacency, Path.Valid and the traversal algorithms. Removing an edge
// twice is an error.
func (g *Graph) RemoveEdge(id EdgeID) error {
	if int(id) < 0 || int(id) >= len(g.edges) {
		return fmt.Errorf("graph: remove of unknown edge %d", id)
	}
	if g.removed[id] {
		return fmt.Errorf("graph: edge %d already removed", id)
	}
	e := g.edges[id]
	if g.csr.ok {
		g.csrRemoveEdge(id) // before the tombstone, while pos is live
	}
	g.adj[e.U] = dropEdgeID(g.adj[e.U], id)
	g.adj[e.V] = dropEdgeID(g.adj[e.V], id)
	g.removed[id] = true
	g.numLive--
	g.mutations++
	g.journalAppend(Mutation{Kind: MutRemoveEdge, Edge: id, U: e.U, V: e.V})
	return nil
}

// dropEdgeID removes one occurrence of id, preserving order (adjacency order
// is traversal order, which determinism tests depend on).
func dropEdgeID(ids []EdgeID, id EdgeID) []EdgeID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// EdgeRemoved reports whether an edge slot has been tombstoned.
func (g *Graph) EdgeRemoved(id EdgeID) bool {
	return int(id) >= 0 && int(id) < len(g.removed) && g.removed[id]
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// SetCapacity updates the directional capacities of an edge. With the CSR
// built, the rewrite lands as two O(1) arc-slot writes — a top-up never
// invalidates the packed adjacency.
func (g *Graph) SetCapacity(id EdgeID, capFwd, capRev float64) {
	g.edges[id].CapFwd = capFwd
	g.edges[id].CapRev = capRev
	g.capMutations++
	if g.csr.ok {
		g.csrSetCapacity(id)
	}
}

// Incident returns the IDs of edges incident to node u. The returned slice
// must not be modified.
func (g *Graph) Incident(u NodeID) []EdgeID { return g.adj[u] }

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// HasEdgeBetween reports whether at least one edge directly connects u and v.
func (g *Graph) HasEdgeBetween(u, v NodeID) bool {
	for _, id := range g.adj[u] {
		if g.edges[id].Other(u) == v {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph, including removed-edge tombstones
// (edge IDs stay aligned between a graph and its clone).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		edges:   make([]Edge, len(g.edges)),
		adj:     make([][]EdgeID, len(g.adj)),
		removed: append([]bool(nil), g.removed...),
		numLive: g.numLive,
	}
	copy(c.edges, g.edges)
	for i, a := range g.adj {
		c.adj[i] = append([]EdgeID(nil), a...)
	}
	return c
}

// Path is a walk through the graph expressed as the sequence of nodes
// visited and the edges taken between consecutive nodes
// (len(Edges) == len(Nodes)-1).
type Path struct {
	Nodes []NodeID
	Edges []EdgeID
}

// Len returns the number of hops (edges) in the path.
func (p Path) Len() int { return len(p.Edges) }

// Valid reports whether the path is structurally consistent with g: each
// edge connects the adjacent node pair.
func (p Path) Valid(g *Graph) bool {
	if len(p.Nodes) == 0 || len(p.Edges) != len(p.Nodes)-1 {
		return false
	}
	for i, eid := range p.Edges {
		if int(eid) < 0 || int(eid) >= g.NumEdges() || g.EdgeRemoved(eid) {
			return false
		}
		e := g.Edge(eid)
		u, v := p.Nodes[i], p.Nodes[i+1]
		if !(e.U == u && e.V == v) && !(e.U == v && e.V == u) {
			return false
		}
	}
	return true
}

// Bottleneck returns the minimum directional capacity along the path, i.e.
// the maximum amount routable over it in a single shot.
func (p Path) Bottleneck(g *Graph) float64 {
	b := math.Inf(1)
	for i, eid := range p.Edges {
		c := g.Edge(eid).Capacity(p.Nodes[i])
		if c < b {
			b = c
		}
	}
	return b
}

// Equal reports whether two paths take the same edges through the same
// nodes.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) || len(p.Edges) != len(q.Edges) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			return false
		}
	}
	for i := range p.Edges {
		if p.Edges[i] != q.Edges[i] {
			return false
		}
	}
	return true
}

// WeightFunc assigns a traversal cost to using edge e in the direction out of
// node `from`. Returning math.Inf(1) excludes the arc.
type WeightFunc func(e Edge, from NodeID) float64

// UnitWeight weights every arc 1 (hop count).
func UnitWeight(Edge, NodeID) float64 { return 1 }

// BFSHops returns the hop distance from src to every node (-1 when
// unreachable), ignoring capacities. Repeated searches should share their
// buffers through BFSHopsInto.
func (g *Graph) BFSHops(src NodeID) []int {
	dist := make([]int, g.NumNodes())
	g.BFSHopsInto(dist, src, nil)
	return dist
}

// BFSHopsInto is BFSHops writing into dist, which must hold NumNodes()
// entries. queue is the search's scratch: its backing array is reused when
// it can hold every node, and the queue is returned for the next search,
// so a caller looping over sources allocates it once.
func (g *Graph) BFSHopsInto(dist []int, src NodeID, queue []NodeID) []NodeID {
	for i := range dist {
		dist[i] = -1
	}
	if cap(queue) < len(dist) {
		queue = make([]NodeID, 0, len(dist))
	}
	dist[src] = 0
	return g.sweep(src, dist, 1, queue)
}

// Components labels every node with its connected component: label[v] is
// the component's index, and components are numbered in the order of their
// lowest node id. It returns the labels and the number of components.
func (g *Graph) Components() (label []int, count int) {
	label = make([]int, g.NumNodes())
	for i := range label {
		label[i] = -1
	}
	queue := make([]NodeID, 0, len(label))
	for root := range label {
		if label[root] < 0 {
			label[root] = count
			queue = g.sweep(NodeID(root), label, 0, queue)
			count++
		}
	}
	return label, count
}

// sweep runs a breadth-first search from src over the nodes whose mark is
// -1, giving each node it reaches its parent's mark plus step (hop counts
// with step 1, component labels with step 0), and returns the queue for
// reuse. It walks the packed CSR arcs when the graph has them. It does not
// build them: placement searches a graph before the multi-star reshape adds
// a channel per client, and a CSR built that early has every client's arc
// region migrate during the reshape. The adjacency lists hold the same
// arcs, and a node's hop count or label does not depend on the order its
// arcs are visited in.
func (g *Graph) sweep(src NodeID, mark []int, step int, queue []NodeID) []NodeID {
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		m := mark[u] + step
		if g.csr.ok {
			s := g.csr.span[u]
			for _, arc := range g.csr.slab[s.off : s.off+s.n] {
				if v := NodeID(arc >> 32); mark[v] < 0 {
					mark[v] = m
					queue = append(queue, v)
				}
			}
			continue
		}
		for _, eid := range g.adj[u] {
			if v := g.edges[eid].Other(u); mark[v] < 0 {
				mark[v] = m
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// Connected reports whether the graph is connected (vacuously true for 0 or
// 1 nodes).
func (g *Graph) Connected() bool {
	if g.NumNodes() <= 1 {
		return true
	}
	dist := g.BFSHops(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// reconstruct returns the src→dst path of a prev tree as a new Path whose
// slices are allocated once, at their final length.
func reconstruct(src, dst NodeID, prevNode []NodeID, prevEdge []EdgeID) Path {
	hops := chainHops(src, dst, prevNode)
	p := Path{Nodes: make([]NodeID, hops+1)}
	if hops > 0 {
		p.Edges = make([]EdgeID, hops)
	}
	fillChain(p.Nodes, p.Edges, dst, prevNode, prevEdge)
	return p
}

// reconstructInto is reconstruct writing into caller-owned buffers, grown
// only when too short, for paths that are consumed immediately (Yen spur
// splicing) rather than retained.
func reconstructInto(nodes []NodeID, edges []EdgeID, src, dst NodeID, prevNode []NodeID, prevEdge []EdgeID) ([]NodeID, []EdgeID) {
	hops := chainHops(src, dst, prevNode)
	nodes = slices.Grow(nodes[:0], hops+1)[:hops+1]
	edges = slices.Grow(edges[:0], hops)[:hops]
	fillChain(nodes, edges, dst, prevNode, prevEdge)
	return nodes, edges
}

// chainHops counts the edges on the prev chain from dst back to src.
func chainHops(src, dst NodeID, prevNode []NodeID) int {
	hops := 0
	for at := dst; at != src; at = prevNode[at] {
		hops++
	}
	return hops
}

// fillChain writes the prev chain ending at dst into nodes and edges, sized
// by chainHops, from the back.
func fillChain(nodes []NodeID, edges []EdgeID, dst NodeID, prevNode []NodeID, prevEdge []EdgeID) {
	at := dst
	for i := len(edges); i > 0; i-- {
		nodes[i] = at
		edges[i-1] = prevEdge[at]
		at = prevNode[at]
	}
	nodes[0] = at
}
