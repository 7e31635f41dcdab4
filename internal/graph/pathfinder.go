package graph

import (
	"math"
	"slices"
	"sort"
)

// PathFinder owns the scratch state for repeated shortest- and widest-path
// queries over one graph: pre-sized dist/prev arrays, query-stamped validity
// marks (so "reset" between queries is O(1)), and a reusable binary heap.
// Repeated queries therefore allocate only the returned Path. Yen's
// algorithm (KShortestPaths) runs every spur search on the same scratch
// state, which is where the bulk of the path-selection allocations used to
// come from.
//
// A PathFinder is not safe for concurrent use; create one per goroutine.
// It tracks graph growth lazily, so a long-lived finder stays valid across
// AddNode/AddEdge (e.g. the multi-star reshape adding client channels).
type PathFinder struct {
	g        *Graph
	dist     []float64 // tentative cost (shortest) or bottleneck width (widest)
	hops     []int     // hop counts for widest-path tie-breaking
	prevEdge []EdgeID
	prevNode []NodeID
	// state fuses the former seen/done stamp arrays: a node is seen in the
	// current query iff state[v] >= query<<1, and finalized (done) iff
	// state[v] == query<<1|1. Query stamps strictly increase between
	// wraparounds, so one load answers both questions in the relaxation
	// loop.
	state []uint32
	query uint32
	heap  nodeHeap

	// Yen scratch.
	bannedNode []bool
	// edgeStamp/edgeGen implement the banned/masked edge sets of Yen's spur
	// searches, EDS extraction and EDW masking as O(1)-reset generation
	// stamps: an edge is in the current set iff its stamp equals edgeGen.
	// The former map[EdgeID]bool cost a hash lookup per edge relaxation in
	// every spur Dijkstra — the single hottest line of route planning.
	edgeStamp []uint32
	edgeGen   uint32

	// uheap serves the unit-weight fast path. The packed arc arrays the
	// fast paths iterate are no longer finder-private: they live on the
	// Graph itself (see csr.go) and are maintained incrementally by the
	// mutators, so a channel open/close costs O(degree) and a top-up O(1)
	// instead of an O(E) mirror rebuild. Arc order matches g.adj exactly —
	// traversal order is observable through Dijkstra tie-breaking and must
	// not change.
	uheap unitHeap

	// spur scratch: Yen's spur paths are consumed immediately (spliced into
	// a freshly allocated total path), so they reconstruct into reusable
	// buffers instead of allocating two slices per spur search.
	spurNodes []NodeID
	spurEdges []EdgeID
	// Yen's per-query working set, emptied (not freed) by each query: the
	// candidate heap and the result indices sharing the current spur root.
	cands   candidateHeap
	sharing []int
	// queue is UnitHops' breadth-first queue.
	queue []NodeID
}

// NewPathFinder returns a finder for g.
func NewPathFinder(g *Graph) *PathFinder {
	pf := &PathFinder{g: g}
	pf.ensure()
	return pf
}

// Rebind points the finder at a different graph, keeping its scratch
// allocations. All per-query scratch is stamp-invalidated at the next begin,
// and the persistent marks (bannedNode, the current edge set) are only
// meaningful within a single query's Yen/EDS/EDW run, so switching graphs
// between queries is safe. The serving layer uses this to retarget each
// worker's finder at the snapshot it pinned for the current query.
func (pf *PathFinder) Rebind(g *Graph) {
	if pf.g == g {
		return
	}
	pf.g = g
	pf.ensure()
	pf.ensureEdges()
}

// ensure sizes the scratch arrays to the graph's current node count. Growth
// copies the existing per-node state into the larger arrays (new nodes start
// unseen/unbanned), so a long-lived finder survives node arrivals mid-use:
// the query stamp, and any bannedNode marks held by an in-flight Yen search,
// stay valid. Growing over-allocates by 2x so a stream of single-node
// arrivals (dynamic churn) doesn't reallocate per join.
func (pf *PathFinder) ensure() {
	n := pf.g.NumNodes()
	if len(pf.dist) >= n {
		return
	}
	size := n
	if size < 2*len(pf.dist) {
		size = 2 * len(pf.dist)
	}
	pf.dist = append(make([]float64, 0, size), pf.dist...)[:size]
	pf.hops = append(make([]int, 0, size), pf.hops...)[:size]
	pf.prevEdge = append(make([]EdgeID, 0, size), pf.prevEdge...)[:size]
	pf.prevNode = append(make([]NodeID, 0, size), pf.prevNode...)[:size]
	pf.state = append(make([]uint32, 0, size), pf.state...)[:size]
	pf.bannedNode = append(make([]bool, 0, size), pf.bannedNode...)[:size]
}

// ensureEdges sizes the edge-stamp array to the graph's current edge
// count, growing 2x like ensure.
func (pf *PathFinder) ensureEdges() {
	n := pf.g.NumEdges()
	if len(pf.edgeStamp) >= n {
		return
	}
	size := n
	if size < 2*len(pf.edgeStamp) {
		size = 2 * len(pf.edgeStamp)
	}
	pf.edgeStamp = append(make([]uint32, 0, size), pf.edgeStamp...)[:size]
}

// beginEdgeSet starts a fresh banned/masked edge set in O(1). Edge-set
// users (KSP spur iterations, EDS, EDW) never nest, so one stamp array
// serves them all.
func (pf *PathFinder) beginEdgeSet() {
	pf.ensureEdges()
	pf.edgeGen++
	if pf.edgeGen == 0 { // stamp wraparound: clear once and restart
		clear(pf.edgeStamp)
		pf.edgeGen = 1
	}
}

func (pf *PathFinder) banEdge(id EdgeID) { pf.edgeStamp[id] = pf.edgeGen }

func (pf *PathFinder) edgeBanned(id EdgeID) bool { return pf.edgeStamp[id] == pf.edgeGen }

// begin starts a new query: bumping the stamp invalidates every per-node
// mark from earlier queries without touching the arrays.
func (pf *PathFinder) begin() {
	pf.ensure()
	pf.query++
	if pf.query >= 1<<31 { // stamp wraparound (query<<1|1 must fit): clear and restart
		clear(pf.state)
		pf.query = 1
	}
	pf.heap.reset()
}

// ShortestPath runs Dijkstra from src to dst under w on the finder's scratch
// state and returns the minimum-cost path. ok is false when dst is
// unreachable.
func (pf *PathFinder) ShortestPath(src, dst NodeID, w WeightFunc) (Path, bool) {
	if !pf.runShortest(src, dst, w) {
		return Path{}, false
	}
	return reconstruct(src, dst, pf.prevNode, pf.prevEdge), true
}

// runShortest executes Dijkstra under w, leaving the prev tree in the
// scratch arrays; it reports whether dst was reached.
func (pf *PathFinder) runShortest(src, dst NodeID, w WeightFunc) bool {
	pf.begin()
	g := pf.g
	sd := pf.query << 1
	pf.dist[src] = 0
	pf.prevEdge[src] = -1
	pf.prevNode[src] = -1
	pf.state[src] = sd
	pf.heap.push(src, 0)
	for pf.heap.len() > 0 {
		u, du := pf.heap.pop()
		if pf.state[u] == sd|1 {
			continue
		}
		pf.state[u] = sd | 1
		if u == dst {
			break
		}
		for _, eid := range g.adj[u] {
			e := g.edges[eid]
			v := e.Other(u)
			// A finalized node cannot be improved (weights are nonnegative,
			// so du+cost >= du >= dist[v]); skipping it before the weight
			// callback saves the indirect call on roughly half the edge
			// visits without changing any relaxation outcome.
			sv := pf.state[v]
			if sv == sd|1 {
				continue
			}
			cost := w(e, u)
			if math.IsInf(cost, 1) {
				continue
			}
			if cost < 0 {
				panic("graph: negative edge weight")
			}
			if nd := du + cost; sv < sd || nd < pf.dist[v] {
				pf.dist[v] = nd
				pf.prevEdge[v] = eid
				pf.prevNode[v] = u
				pf.state[v] = sd
				pf.heap.push(v, nd)
			}
		}
	}
	return pf.state[dst] >= sd
}

// UnitShortestPath is ShortestPath specialized to unit weights (hop
// counts) — the simulator's most common query (landmark detours, Flash
// mice paths, EDS extraction, the ShortestPath baseline scheme). The
// specialization removes the per-edge indirect weight call and Edge copy
// from the relaxation loop; pushes, pops and relaxation outcomes are
// bit-identical to ShortestPath(src, dst, UnitWeight).
func (pf *PathFinder) UnitShortestPath(src, dst NodeID) (Path, bool) {
	return pf.shortestUnit(src, dst, false, false)
}

// shortestUnit is the unit-weight Dijkstra core. banEdges skips edges in
// the current stamped edge set; banNodes skips the bannedNode marks (Yen
// spur roots). A banned edge/node behaves exactly like an infinite weight
// in the generic loop: the arc is skipped, nothing else changes.
func (pf *PathFinder) shortestUnit(src, dst NodeID, banEdges, banNodes bool) (Path, bool) {
	if !pf.runUnit(src, dst, banEdges, banNodes) {
		return Path{}, false
	}
	return reconstruct(src, dst, pf.prevNode, pf.prevEdge), true
}

// runUnit executes the unit Dijkstra, leaving the prev tree in the scratch
// arrays; it reports whether dst was reached.
//
// First-touch invariant: under unit weights pops are non-decreasing in hop
// count, so when v is first relaxed from a node popped at du, every later
// offer is du'+1 >= du+1 and `fnd < dist[v]` never holds again — a node is
// pushed once and its prevNode/prevEdge are final the moment it is first
// touched (its ancestors were touched, and finalized, before it). The
// ban-aware loop therefore returns at the first relaxation that reaches dst
// instead of expanding the rest of the frontier until dst pops; reconstruct
// reads the same prev chain either way. Bans only remove arcs, so the
// invariant holds under any banned set. The clean loop deliberately keeps
// its pop-to-target shape: it is also splicerd's exact-finder rung, where
// the early return is a separate, serve-side claim.
func (pf *PathFinder) runUnit(src, dst NodeID, banEdges, banNodes bool) bool {
	pf.begin()
	pf.g.csrEnsure()
	pf.uheap.reset()
	sd := pf.query << 1
	// Local copies of the scratch arrays: none of them grow during the
	// query, and keeping them in locals lets the compiler keep the slice
	// headers in registers across the uheap.push calls (which mutate pf
	// state and would otherwise force reloads).
	state, dist := pf.state, pf.dist
	prevEdge, prevNode := pf.prevEdge, pf.prevNode
	span, slab := pf.g.csr.span, pf.g.csr.slab
	dist[src] = 0
	prevEdge[src] = -1
	prevNode[src] = -1
	state[src] = sd
	pf.uheap.push(src, 0)
	for pf.uheap.len() > 0 {
		u, du := pf.uheap.pop()
		if state[u] == sd|1 {
			continue
		}
		state[u] = sd | 1
		if u == dst {
			break
		}
		nd := du + 1
		s := span[u]
		arcs := slab[s.off : s.off+s.n]
		if !banEdges && !banNodes {
			// Clean variant (first searches, landmark detours, access
			// paths): no ban checks in the inner loop at all.
			fnd := float64(nd)
			for _, arc := range arcs {
				v := NodeID(arc >> 32)
				sv := state[v]
				if sv == sd|1 {
					continue
				}
				if sv < sd || fnd < dist[v] {
					dist[v] = fnd
					prevEdge[v] = EdgeID(uint32(arc))
					prevNode[v] = u
					state[v] = sd
					pf.uheap.push(v, nd)
				}
			}
			continue
		}
		edgeStamp, edgeGen := pf.edgeStamp, pf.edgeGen
		bannedNode := pf.bannedNode
		for _, arc := range arcs {
			eid := EdgeID(uint32(arc))
			if banEdges && edgeStamp[eid] == edgeGen {
				continue
			}
			v := NodeID(arc >> 32)
			if state[v] >= sd { // seen: the first touch was final
				continue
			}
			if banNodes && bannedNode[v] {
				continue
			}
			prevEdge[v] = eid
			prevNode[v] = u
			state[v] = sd
			if v == dst {
				return true
			}
			pf.uheap.push(v, nd)
		}
	}
	return pf.state[dst] >= sd
}

// UnitHops returns the hop distance from src to dst, -1 when dst is
// unreachable: Graph.BFSHops(src)[dst], from a breadth-first search on the
// finder's stamped scratch that stops at dst's first touch.
func (pf *PathFinder) UnitHops(src, dst NodeID) int {
	if src == dst {
		return 0
	}
	pf.begin()
	pf.g.csrEnsure()
	sd := pf.query << 1
	state, hops := pf.state, pf.hops
	span, slab := pf.g.csr.span, pf.g.csr.slab
	state[src] = sd
	hops[src] = 0
	queue := append(pf.queue[:0], src)
	defer func() { pf.queue = queue[:0] }()
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := hops[u] + 1
		s := span[u]
		for _, arc := range slab[s.off : s.off+s.n] {
			v := NodeID(arc >> 32)
			if state[v] >= sd {
				continue
			}
			if v == dst {
				return du
			}
			state[v] = sd
			hops[v] = du
			queue = append(queue, v)
		}
	}
	return -1
}

// UnitShortestPaths runs ONE unit-weight Dijkstra from src and returns the
// shortest path to every target (the zero Path where unreachable). Each
// entry is identical to UnitShortestPath(src, dsts[i]) run separately: the
// expansion is deterministic and a touched node's prev never changes (the
// first-touch invariant on runUnit), so the search stops at the relaxation
// that reaches the last outstanding target. Landmark routing uses it to
// compute all k sender→landmark detour heads in a single traversal.
func (pf *PathFinder) UnitShortestPaths(src NodeID, dsts []NodeID) []Path {
	out := make([]Path, len(dsts))
	if len(dsts) == 0 {
		return out
	}
	pf.begin()
	pf.g.csrEnsure()
	pf.uheap.reset()
	sd := pf.query << 1
	state := pf.state
	prevEdge, prevNode := pf.prevEdge, pf.prevNode
	span, slab := pf.g.csr.span, pf.g.csr.slab
	prevEdge[src] = -1
	prevNode[src] = -1
	state[src] = sd
	// remaining counts the target slots not yet touched. A node is touched
	// exactly once, so duplicate targets are each counted once, at that
	// touch; the scan runs per touched node, not per pop.
	remaining := len(dsts)
	for _, d := range dsts {
		if d == src {
			remaining--
		}
	}
	pf.uheap.push(src, 0)
search:
	for remaining > 0 && pf.uheap.len() > 0 {
		u, du := pf.uheap.pop()
		state[u] = sd | 1
		nd := du + 1
		s := span[u]
		for _, arc := range slab[s.off : s.off+s.n] {
			v := NodeID(arc >> 32)
			if state[v] >= sd {
				continue
			}
			prevEdge[v] = EdgeID(uint32(arc))
			prevNode[v] = u
			state[v] = sd
			for _, d := range dsts {
				if d == v {
					remaining--
				}
			}
			if remaining == 0 {
				break search
			}
			pf.uheap.push(v, nd)
		}
	}
	for i, d := range dsts {
		if state[d] >= sd {
			out[i] = reconstruct(src, d, prevNode, prevEdge)
		}
	}
	return out
}

// widestPath is WidestPath with an optional mask: when masked, edges in the
// current edge set are skipped — exactly what zeroing their capacities on a
// cloned graph did, without the clone.
func (pf *PathFinder) widestPath(src, dst NodeID, masked bool) (Path, bool) {
	pf.begin()
	pf.g.csrEnsure()
	sd := pf.query << 1
	state, dist, hops := pf.state, pf.dist, pf.hops
	prevEdge, prevNode := pf.prevEdge, pf.prevNode
	span, slab, csrCap := pf.g.csr.span, pf.g.csr.slab, pf.g.csr.caps
	dist[src] = math.Inf(1) // dist doubles as the bottleneck width
	hops[src] = 0
	prevEdge[src] = -1
	prevNode[src] = -1
	state[src] = sd
	pf.heap.push(src, 0) // priority = -width so the widest pops first
	for pf.heap.len() > 0 {
		u, _ := pf.heap.pop()
		if state[u] == sd|1 {
			continue
		}
		state[u] = sd | 1
		if u == dst {
			break
		}
		du := dist[u]
		dh := hops[u] + 1
		s := span[u]
		start, end := s.off, s.off+s.n
		caps := csrCap[start:end]
		for i, arc := range slab[start:end] {
			eid := EdgeID(uint32(arc))
			if masked && pf.edgeStamp[eid] == pf.edgeGen {
				continue
			}
			c := caps[i]
			if c <= 0 {
				continue
			}
			v := NodeID(arc >> 32)
			nw := du
			if c < nw {
				nw = c
			}
			// Unlike shortest paths, a finalized node can still be refined
			// here (equal width, fewer hops), so the done bit must survive
			// the update: only an unseen node gets the plain seen stamp.
			sv := state[v]
			if sv < sd || nw > dist[v] || (nw == dist[v] && dh < hops[v]) {
				dist[v] = nw
				hops[v] = dh
				prevEdge[v] = eid
				prevNode[v] = u
				if sv < sd {
					state[v] = sd
				}
				pf.heap.push(v, -nw)
			}
		}
	}
	if pf.state[dst] < sd || (pf.prevNode[dst] == -1 && src != dst) {
		return Path{}, false
	}
	return reconstruct(src, dst, pf.prevNode, pf.prevEdge), true
}

// EdgeDisjointWidestPaths greedily extracts up to k pairwise edge-disjoint
// widest paths (the EDW path type) on the finder's scratch state: find the
// widest path, mask its edges, repeat. Masking uses the stamped edge set,
// so no graph clone and no throwaway finder are built per query.
func (pf *PathFinder) EdgeDisjointWidestPaths(src, dst NodeID, k int) []Path {
	pf.beginEdgeSet()
	var out []Path
	for len(out) < k && !pf.deadEnd(src, dst, true) {
		p, ok := pf.widestPath(src, dst, true)
		if !ok {
			break
		}
		if out == nil {
			out = make([]Path, 0, min(k, maxResultPresize))
		}
		out = append(out, p)
		for _, eid := range p.Edges {
			pf.banEdge(eid)
		}
	}
	return out
}

// deadEnd reports whether a masked src→dst search is certain to fail because
// an endpoint has no usable arc left: every arc out of src, or every arc into
// dst, is in the current edge set or (widest only) carries no capacity in
// the direction of travel. The edge-disjoint extractors would learn the same
// thing from a search over src's whole component — the usual way they end,
// since each extracted path masks one arc at both endpoints — and stop on
// its !ok, so skipping that search leaves the returned paths identical.
// src == dst is never a dead end: the searches answer it with the trivial
// path without looking at an arc.
func (pf *PathFinder) deadEnd(src, dst NodeID, widest bool) bool {
	if src == dst {
		return false
	}
	pf.g.csrEnsure()
	return !pf.hasUsableArc(src, widest, true) || !pf.hasUsableArc(dst, widest, false)
}

// hasUsableArc reports whether some arc at v is outside the current edge set
// and, for widest searches, has positive capacity out of v (out) or into it.
func (pf *PathFinder) hasUsableArc(v NodeID, widest, out bool) bool {
	c := &pf.g.csr
	s := c.span[v]
	for i := s.off; i < s.off+s.n; i++ {
		arc := c.slab[i]
		eid := EdgeID(uint32(arc))
		if pf.edgeBanned(eid) {
			continue
		}
		if !widest {
			return true
		}
		capacity := c.caps[i]
		if !out {
			capacity = pf.g.edges[eid].Capacity(NodeID(arc >> 32))
		}
		if capacity > 0 {
			return true
		}
	}
	return false
}

// KShortestPaths implements Yen's algorithm on the finder's scratch state,
// returning up to k loopless minimum-cost paths from src to dst under w, in
// nondecreasing cost order. Equal-cost candidates keep their discovery order
// (the candidate heap tie-breaks on insertion sequence, matching the
// stable-sort semantics this replaced). For unit weights prefer
// KShortestPathsUnit, which runs every spur search on the allocation- and
// indirection-free unit Dijkstra.
func (pf *PathFinder) KShortestPaths(src, dst NodeID, k int, w WeightFunc) []Path {
	return pf.kShortestPaths(src, dst, k, w, false)
}

// KShortestPathsUnit is KShortestPaths under unit (hop-count) weights,
// with identical results to KShortestPaths(src, dst, k, UnitWeight).
func (pf *PathFinder) KShortestPathsUnit(src, dst NodeID, k int) []Path {
	return pf.kShortestPaths(src, dst, k, UnitWeight, true)
}

func (pf *PathFinder) kShortestPaths(src, dst NodeID, k int, w WeightFunc, unit bool) []Path {
	if k <= 0 {
		return nil
	}
	var first Path
	var ok bool
	if unit {
		first, ok = pf.shortestUnit(src, dst, false, false)
	} else {
		first, ok = pf.ShortestPath(src, dst, w)
	}
	if !ok {
		return nil
	}
	return pf.kShortestPathsFrom(first, dst, k, w, unit)
}

// kShortestPathsFrom is Yen's continuation given a precomputed first path
// (first.Nodes[0] is the source). Yen's rounds depend only on the result
// set and the graph, so seeding with a first path equal to what the initial
// Dijkstra would return yields output identical to kShortestPaths — which
// is how the hub-label tier accelerates k-shortest queries: the label tree
// supplies the first path for free and the spur searches proceed exactly
// as before.
func (pf *PathFinder) kShortestPathsFrom(first Path, dst NodeID, k int, w WeightFunc, unit bool) []Path {
	if k <= 0 {
		return nil
	}
	if k == 1 {
		return []Path{first}
	}
	pf.ensure()
	pf.ensureEdges()
	g := pf.g
	result := make([]Path, 1, min(k, maxResultPresize))
	result[0] = first
	cands := &pf.cands
	var seq uint64
	pathCost := func(p Path) float64 {
		if unit {
			return float64(len(p.Edges))
		}
		c := 0.0
		for i, eid := range p.Edges {
			c += w(g.edges[eid], p.Nodes[i])
		}
		return c
	}
	wf := func(e Edge, from NodeID) float64 {
		if pf.edgeBanned(e.ID) || pf.bannedNode[e.Other(from)] {
			return math.Inf(1)
		}
		return w(e, from)
	}

	// prevSpur is the spur index at which the newest result path deviated
	// from the result that spawned it (Lawler's optimization): for spur
	// indices below it, the root prefix and banned edge set are identical
	// to a search an earlier round already ran, whose candidate is in
	// `cands` or was seen-deduplicated — recomputing it cannot add
	// anything, so those Dijkstras are skipped outright. The root-node
	// bans and sharing-set filtering still advance through the skipped
	// prefix so the remaining spur searches see the exact same state.
	prevSpur := 0
	for len(result) < k {
		prev := result[len(result)-1]
		// Result paths sharing the current spur root. Every result path
		// starts at src, so all share the length-1 root; the set only
		// shrinks as the root grows, so it is filtered incrementally rather
		// than re-scanning every result path per spur node.
		sharing := pf.sharing[:0]
		for idx := range result {
			sharing = append(sharing, idx)
		}
		for i := 0; i < len(prev.Nodes)-1; i++ {
			keep := sharing[:0]
			for _, idx := range sharing {
				if rp := result[idx]; len(rp.Nodes) > i && rp.Nodes[i] == prev.Nodes[i] {
					keep = append(keep, idx)
				}
			}
			sharing = keep
			if i > 0 {
				pf.bannedNode[prev.Nodes[i-1]] = true
			}
			if i < prevSpur {
				continue
			}
			// Exclude arcs that would recreate any already-found path
			// sharing this root, and exclude earlier root nodes to keep spur
			// paths loopless (the root grows one node per iteration).
			pf.beginEdgeSet()
			for _, idx := range sharing {
				if rp := result[idx]; len(rp.Edges) > i {
					pf.banEdge(rp.Edges[i])
				}
			}
			// Spur paths are spliced into `total` below and discarded, so
			// they reconstruct into the finder's reusable scratch.
			var reached bool
			if unit {
				reached = pf.runUnit(prev.Nodes[i], dst, true, true)
			} else {
				reached = pf.runShortest(prev.Nodes[i], dst, wf)
			}
			if !reached {
				continue
			}
			pf.spurNodes, pf.spurEdges = reconstructInto(
				pf.spurNodes[:0], pf.spurEdges[:0], prev.Nodes[i], dst, pf.prevNode, pf.prevEdge)
			root, spurNodes, spurEdges := prev.Nodes[:i+1], pf.spurNodes[1:], pf.spurEdges
			// Every path found so far is a result or a queued candidate, so
			// the spliced path is new iff it matches none of them; checking
			// before splicing means a repeat costs no allocation.
			if pf.known(result, root, spurNodes) {
				continue
			}
			total := Path{
				Nodes: make([]NodeID, i+1+len(spurNodes)),
				Edges: make([]EdgeID, i+len(spurEdges)),
			}
			copy(total.Nodes, root)
			copy(total.Nodes[len(root):], spurNodes)
			copy(total.Edges, prev.Edges[:i])
			copy(total.Edges[i:], spurEdges)
			cands.push(total, pathCost(total), seq, i)
			seq++
		}
		pf.sharing = sharing[:0]
		if n := len(prev.Nodes) - 2; n > 0 {
			for _, nid := range prev.Nodes[:n] {
				pf.bannedNode[nid] = false
			}
		}
		if cands.len() == 0 {
			break
		}
		var next Path
		next, prevSpur = cands.pop()
		result = append(result, next)
	}
	// Drop the leftover candidates' paths, so the reused heap pins nothing
	// past the query.
	cands.reset()
	return result
}

// known reports whether the node sequence root+spur is one of Yen's result
// paths or queued candidates.
func (pf *PathFinder) known(result []Path, root, spur []NodeID) bool {
	same := func(p Path) bool {
		return len(p.Nodes) == len(root)+len(spur) &&
			slices.Equal(p.Nodes[len(root):], spur) && slices.Equal(p.Nodes[:len(root)], root)
	}
	return slices.ContainsFunc(result, same) || slices.ContainsFunc(pf.cands.paths, same)
}

// maxResultPresize caps the result capacity the k-path searches reserve up
// front: k comes from the caller (splicerd takes it from the request), so a
// huge k must not become a huge allocation.
const maxResultPresize = 16

// EdgeDisjointShortestPaths greedily extracts up to k pairwise edge-disjoint
// shortest (fewest-hop) paths on the finder's scratch state: find a shortest
// path, remove its edges, repeat.
func (pf *PathFinder) EdgeDisjointShortestPaths(src, dst NodeID, k int) []Path {
	pf.beginEdgeSet()
	var out []Path
	for len(out) < k && !pf.deadEnd(src, dst, false) {
		p, ok := pf.shortestUnit(src, dst, true, false)
		if !ok {
			break
		}
		if out == nil {
			out = make([]Path, 0, min(k, maxResultPresize))
		}
		out = append(out, p)
		for _, eid := range p.Edges {
			pf.banEdge(eid)
		}
	}
	return out
}

// HighestFundPaths implements the paper's "Heuristic" path type on the
// finder's scratch state: pick up to k loopless paths with the highest
// bottleneck funds, by running Yen's algorithm under an inverse-capacity
// weight and reranking by bottleneck.
func (pf *PathFinder) HighestFundPaths(src, dst NodeID, k int) []Path {
	// Generate a wider candidate pool than k, then keep the k with the
	// largest bottleneck capacity.
	pool := pf.KShortestPaths(src, dst, 3*k, func(e Edge, from NodeID) float64 {
		c := e.Capacity(from)
		if c <= 0 {
			return math.Inf(1)
		}
		return 1 / c
	})
	g := pf.g
	sort.SliceStable(pool, func(a, b int) bool {
		return pool[a].Bottleneck(g) > pool[b].Bottleneck(g)
	})
	if len(pool) > k {
		pool = pool[:k]
	}
	return pool
}
