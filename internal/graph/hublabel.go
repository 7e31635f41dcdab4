// Hub-label route precomputation. The placement layer produces a small set
// of hubs that route most traffic; every scheme's hot unit-weight queries
// are rooted at one of them (hub→recipient access paths, landmark detour
// tails). A HubLabels instance precomputes one canonical unit shortest-path
// tree per hub and answers hub-rooted queries by O(path length) tree
// walks — no heap, no relaxations — falling back to the exact PathFinder
// for everything else.
//
// Correctness contract (the part the golden CSVs care about): a served
// answer is byte-identical to the PathFinder's. Each tree is built by the
// same unit Dijkstra the finder runs, expanded past every target; since a
// finalized node's dist/prev never change, stopping early at any target
// yields the same path the full expansion holds. Queries whose source is
// not a hub are NOT served from labels: reversing a hub-rooted tree path
// gives a correct shortest path but not necessarily the finder's tie-break,
// so those take the exact fallback.
//
// Churn awareness: trees observe the graph's shape journal and repair
// lazily, scoped to the hubs a mutation can actually affect:
//
//   - SetCapacity (top-ups, balance gossip) never touches labels — unit
//     trees are capacity-blind.
//   - AddNode appends an unreachable entry to each built tree.
//   - AddEdge(u,v) provably cannot change a hub's tree when the tree holds
//     dist[u] == dist[v] (both relaxations fail: in unit Dijkstra every
//     node at distance ≤ d is seen before the first distance-d pop, so an
//     equal-distance arc never improves anything — this includes the
//     both-unreachable case). Otherwise only that hub's tree is staled.
//   - RemoveEdge(e) cannot change a tree that doesn't use e as a tree arc
//     (in unit Dijkstra a seen node's dist/prev are never overwritten, so a
//     non-tree arc's relaxations were no-ops in both directions and its
//     removal leaves the whole execution identical). Otherwise only that
//     hub's tree is staled.
//
// A staled tree rebuilds on the next query that needs it; other hubs keep
// serving. Journal overflow (observer fell too far behind) stales all
// trees — a full resync, counted separately.
package graph

// LabelStats counts hub-label activity, for effectiveness reporting and
// for the repair-scoping tests.
type LabelStats struct {
	// Builds counts per-hub tree constructions (initial builds + repairs).
	Builds uint64
	// Repairs is the subset of Builds that rebuilt a previously built tree
	// after churn staled it.
	Repairs uint64
	// StaleMarks counts (mutation, tree) pairs where a shape mutation
	// staled a built tree; NoopMutations counts pairs where the repair
	// rules proved the mutation could not affect the tree.
	StaleMarks    uint64
	NoopMutations uint64
	// Resyncs counts journal-overflow events that staled every tree.
	Resyncs uint64
	// Served counts queries answered from a label tree; Fallbacks counts
	// queries routed to the exact PathFinder.
	Served    uint64
	Fallbacks uint64
}

// Plus returns the field-wise sum of s and o: the counters of a tier that
// replaced another, carried over its predecessor's.
func (s LabelStats) Plus(o LabelStats) LabelStats {
	return LabelStats{
		Builds:        s.Builds + o.Builds,
		Repairs:       s.Repairs + o.Repairs,
		StaleMarks:    s.StaleMarks + o.StaleMarks,
		NoopMutations: s.NoopMutations + o.NoopMutations,
		Resyncs:       s.Resyncs + o.Resyncs,
		Served:        s.Served + o.Served,
		Fallbacks:     s.Fallbacks + o.Fallbacks,
	}
}

// hubTree is one hub's canonical unit shortest-path tree. dist is −1 for
// unreachable nodes; prevNode/prevEdge are −1 at the root.
type hubTree struct {
	hub      NodeID
	dist     []int32
	prevNode []int32
	prevEdge []int32
	built    bool // arrays were ever filled
	fresh    bool // arrays match the current graph
}

// HubLabels answers unit-weight shortest-path and k-shortest queries from
// per-hub precomputed trees, with exact fallback. Not safe for concurrent
// use; like PathFinder, create one per goroutine.
type HubLabels struct {
	g      *Graph
	pf     *PathFinder
	hubs   []NodeID
	hubIdx map[NodeID]int
	trees  []hubTree
	seq    uint64 // journal cursor
	stats  LabelStats
	heap   unitHeap
	done   []bool // per-build finalization scratch
}

// NewHubLabels returns a label tier over g seeded with the given hubs
// (typically the placement output). Trees build lazily on first use. pf is
// the exact finder used for fallback and k-shortest continuations; pass nil
// to create a private one.
func NewHubLabels(g *Graph, pf *PathFinder, hubs []NodeID) *HubLabels {
	if pf == nil {
		pf = NewPathFinder(g)
	}
	hl := &HubLabels{
		g:      g,
		pf:     pf,
		hubIdx: make(map[NodeID]int, len(hubs)),
		seq:    g.MutationSeq(),
	}
	for _, h := range hubs {
		if _, dup := hl.hubIdx[h]; dup {
			continue
		}
		hl.hubIdx[h] = len(hl.hubs)
		hl.hubs = append(hl.hubs, h)
		hl.trees = append(hl.trees, hubTree{hub: h})
	}
	return hl
}

// Stats returns a snapshot of the activity counters.
func (hl *HubLabels) Stats() LabelStats { return hl.stats }

// sync drains the graph's shape journal, applying the scoped repair rules.
func (hl *HubLabels) sync() {
	g := hl.g
	if g.MutationSeq() == hl.seq {
		return
	}
	muts, ok := g.MutationsSince(hl.seq)
	if !ok {
		for i := range hl.trees {
			if hl.trees[i].fresh {
				hl.trees[i].fresh = false
			}
		}
		hl.stats.Resyncs++
		hl.seq = g.MutationSeq()
		return
	}
	for _, m := range muts {
		switch m.Kind {
		case MutAddNode:
			for i := range hl.trees {
				t := &hl.trees[i]
				if !t.fresh {
					continue
				}
				t.dist = append(t.dist, -1)
				t.prevNode = append(t.prevNode, -1)
				t.prevEdge = append(t.prevEdge, -1)
			}
		case MutAddEdge:
			for i := range hl.trees {
				t := &hl.trees[i]
				if !t.fresh {
					continue
				}
				if t.dist[m.U] == t.dist[m.V] {
					hl.stats.NoopMutations++
				} else {
					t.fresh = false
					hl.stats.StaleMarks++
				}
			}
		case MutRemoveEdge:
			for i := range hl.trees {
				t := &hl.trees[i]
				if !t.fresh {
					continue
				}
				if t.prevEdge[m.U] == int32(m.Edge) || t.prevEdge[m.V] == int32(m.Edge) {
					t.fresh = false
					hl.stats.StaleMarks++
				} else {
					hl.stats.NoopMutations++
				}
			}
		}
	}
	hl.seq = g.MutationSeq()
}

// ensureTree returns hub hi's tree, (re)building it if stale.
func (hl *HubLabels) ensureTree(hi int) *hubTree {
	t := &hl.trees[hi]
	if t.fresh {
		return t
	}
	hl.buildTree(t)
	return t
}

// buildTree runs a full-expansion unit Dijkstra from the hub. The push and
// pop sequence is identical to PathFinder.runUnit's clean variant on the
// same graph (same packed heap, same relaxation outcomes: in unit Dijkstra
// a seen node is never improved, so "unseen" — dist < 0 — is the whole
// relaxation condition), which is what makes served paths byte-identical
// to the finder's.
func (hl *HubLabels) buildTree(t *hubTree) {
	g := hl.g
	g.csrEnsure()
	n := g.NumNodes()
	if cap(t.dist) < n {
		t.dist = make([]int32, n)
		t.prevNode = make([]int32, n)
		t.prevEdge = make([]int32, n)
	} else {
		t.dist = t.dist[:n]
		t.prevNode = t.prevNode[:n]
		t.prevEdge = t.prevEdge[:n]
	}
	for i := range t.dist {
		t.dist[i] = -1
		t.prevNode[i] = -1
		t.prevEdge[i] = -1
	}
	if cap(hl.done) < n {
		hl.done = make([]bool, n)
	} else {
		hl.done = hl.done[:n]
		clear(hl.done)
	}
	done := hl.done
	dist, prevNode, prevEdge := t.dist, t.prevNode, t.prevEdge
	span, slab := g.csr.span, g.csr.slab
	hl.heap.reset()
	dist[t.hub] = 0
	hl.heap.push(t.hub, 0)
	for hl.heap.len() > 0 {
		u, du := hl.heap.pop()
		if done[u] {
			continue
		}
		done[u] = true
		nd := du + 1
		s := span[u]
		for _, arc := range slab[s.off : s.off+s.n] {
			v := NodeID(arc >> 32)
			if done[v] || dist[v] >= 0 {
				continue
			}
			dist[v] = int32(nd)
			prevEdge[v] = int32(uint32(arc))
			prevNode[v] = int32(u)
			hl.heap.push(v, nd)
		}
	}
	if t.built {
		hl.stats.Repairs++
	}
	t.built = true
	t.fresh = true
	hl.stats.Builds++
}

// path reconstructs the tree path hub→dst. The caller has checked
// dist[dst] >= 0.
func (t *hubTree) path(dst NodeID) Path {
	n := int(t.dist[dst]) + 1
	nodes := make([]NodeID, n)
	edges := make([]EdgeID, n-1)
	at := dst
	for i := n - 1; ; i-- {
		nodes[i] = at
		if i == 0 {
			break
		}
		edges[i-1] = EdgeID(t.prevEdge[at])
		at = NodeID(t.prevNode[at])
	}
	return Path{Nodes: nodes, Edges: edges}
}

// UnitShortestPath answers like PathFinder.UnitShortestPath. Queries rooted
// at a hub are served from the label tree; others fall back to the exact
// finder. Either way the result is byte-identical to the finder's.
func (hl *HubLabels) UnitShortestPath(src, dst NodeID) (Path, bool) {
	hl.sync()
	if hi, ok := hl.hubIdx[src]; ok {
		t := hl.ensureTree(hi)
		hl.stats.Served++
		if int(dst) >= len(t.dist) || t.dist[dst] < 0 {
			return Path{}, false
		}
		return t.path(dst), true
	}
	hl.stats.Fallbacks++
	return hl.pf.UnitShortestPath(src, dst)
}

// UnitShortestPaths answers like PathFinder.UnitShortestPaths (the zero
// Path where unreachable), serving from the tree when src is a hub.
func (hl *HubLabels) UnitShortestPaths(src NodeID, dsts []NodeID) []Path {
	hl.sync()
	if hi, ok := hl.hubIdx[src]; ok {
		t := hl.ensureTree(hi)
		hl.stats.Served++
		out := make([]Path, len(dsts))
		for i, d := range dsts {
			if int(d) < len(t.dist) && t.dist[d] >= 0 {
				out[i] = t.path(d)
			}
		}
		return out
	}
	hl.stats.Fallbacks++
	return hl.pf.UnitShortestPaths(src, dsts)
}

// KShortestPathsUnit answers like PathFinder.KShortestPathsUnit. When src
// is a hub the label tree supplies Yen's first path and the finder runs
// only the spur searches; results are identical either way.
func (hl *HubLabels) KShortestPathsUnit(src, dst NodeID, k int) []Path {
	hl.sync()
	if hi, ok := hl.hubIdx[src]; ok && k > 0 {
		t := hl.ensureTree(hi)
		hl.stats.Served++
		if int(dst) >= len(t.dist) || t.dist[dst] < 0 {
			return nil
		}
		return hl.pf.kShortestPathsFrom(t.path(dst), dst, k, UnitWeight, true)
	}
	hl.stats.Fallbacks++
	return hl.pf.KShortestPathsUnit(src, dst, k)
}

// BuildAll drains the journal and eagerly (re)builds every stale tree, so a
// subsequent read-only View serves without mutating anything. The snapshot
// publisher calls it once per epoch; batch callers never need it (trees
// build lazily there).
func (hl *HubLabels) BuildAll() {
	hl.sync()
	for hi := range hl.trees {
		hl.ensureTree(hi)
	}
}

// View returns a read-only handle over fully built labels. The caller must
// have called BuildAll since the last graph mutation; View panics otherwise,
// because a stale view would either serve wrong paths or have to mutate
// shared state to repair itself — exactly what a view exists to avoid.
func (hl *HubLabels) View() LabelView {
	if hl.seq != hl.g.MutationSeq() {
		panic("graph: LabelView over unsynced labels; call BuildAll first")
	}
	for i := range hl.trees {
		if !hl.trees[i].fresh {
			panic("graph: LabelView over stale tree; call BuildAll first")
		}
	}
	return LabelView{hl: hl}
}

// LabelView is a frozen, read-only window onto a HubLabels tier whose trees
// are all built (see BuildAll). Unlike HubLabels itself, a view is safe for
// any number of concurrent readers — its methods touch only the immutable
// tree arrays and the CALLER's PathFinder (for fallbacks and k-shortest
// continuations), never the shared stats, journal cursor, or build scratch.
// Each reader goroutine passes its own finder, bound to the same graph the
// labels were built over.
type LabelView struct {
	hl *HubLabels
}

// Hubs returns the label roots. The returned slice must not be modified.
func (v LabelView) Hubs() []NodeID { return v.hl.hubs }

// KShortestPathsUnit answers like HubLabels.KShortestPathsUnit: when src is
// a hub the tree supplies Yen's first path and pf runs only the spur
// searches; results are identical either way.
func (v LabelView) KShortestPathsUnit(pf *PathFinder, src, dst NodeID, k int) []Path {
	if hi, ok := v.hl.hubIdx[src]; ok && k > 0 {
		t := &v.hl.trees[hi]
		if int(dst) >= len(t.dist) || t.dist[dst] < 0 {
			return nil
		}
		return pf.kShortestPathsFrom(t.path(dst), dst, k, UnitWeight, true)
	}
	return pf.KShortestPathsUnit(src, dst, k)
}
