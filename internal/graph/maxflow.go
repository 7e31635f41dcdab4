package graph

import "math"

// FlowPath is a path together with the flow amount assigned to it by a flow
// decomposition.
type FlowPath struct {
	Path   Path
	Amount float64
}

const flowEps = 1e-9

// maxflow residual arc. Forward arcs carry orig > 0 (the initial capacity);
// pure residual arcs have orig == 0.
type mfArc struct {
	to   NodeID
	cap  float64 // remaining residual capacity
	orig float64 // initial capacity (0 for residual-only arcs)
	rev  int     // index of the paired reverse arc within to's bucket
	edge EdgeID
}

// MaxFlowScratch holds MaxFlow's working storage — the residual arc arena
// and the per-node BFS/DFS/decomposition arrays — so a caller running one
// max-flow per payment (Flash's elephants) reuses it instead of allocating
// it per call. The zero value is ready; a scratch adapts to any graph and
// serves one MaxFlowWith call at a time. The returned FlowPaths never alias
// it.
type MaxFlowScratch struct {
	counts, start, iter, prevArc []int32
	arcs                         []mfArc
	level                        []int
	queue, prevNode              []NodeID
	flow                         []float64
	seen                         []bool
}

// sized returns s[:n], reallocating when the capacity is short. The
// contents are unspecified: MaxFlowWith initializes every array it reads.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// MaxFlowWith is MaxFlow on caller-owned scratch storage; the result is
// identical whatever the scratch held before.
//
// The residual network lives in one flat arc arena indexed by per-node
// offsets (counted in a first pass), so building it costs no per-node slice
// growth — Flash calls this per elephant payment, which made the
// incremental appends the simulator's biggest allocation site. Arc order
// within each node's bucket matches the former append order exactly, so
// BFS/DFS traversal — and therefore the flow decomposition — is unchanged.
func (g *Graph) MaxFlowWith(sc *MaxFlowScratch, src, dst NodeID, limit float64) (float64, []FlowPath) {
	if src == dst || limit <= 0 {
		return 0, nil
	}
	n := g.NumNodes()

	// Pass 1: count arcs per node (a forward arc at the origin plus a
	// residual arc at the target, per positive-capacity direction).
	sc.counts = sized(sc.counts, n+1)
	counts := sc.counts
	clear(counts)
	for i := range g.edges {
		if g.removed[i] {
			continue // tombstones keep their capacities; flow must not use them
		}
		e := &g.edges[i]
		if e.CapFwd > 0 {
			counts[e.U]++
			counts[e.V]++
		}
		if e.CapRev > 0 {
			counts[e.V]++
			counts[e.U]++
		}
	}
	sc.start = sized(sc.start, n+1)
	start := sc.start
	start[0] = 0
	for u := 0; u < n; u++ {
		start[u+1] = start[u] + counts[u]
	}
	// Pass 2 writes every arc slot, so the arena needs no clearing.
	sc.arcs = sized(sc.arcs, int(start[n]))
	arcs := sc.arcs
	cur := counts[:n]
	copy(cur, start[:n]) // reuse counts as per-node fill cursors

	// Pass 2: fill, preserving the former append order (edges in id order;
	// for each direction, the forward arc before its residual twin).
	addArc := func(u, v NodeID, c float64, eid EdgeID) {
		fi, ri := cur[u], cur[v]
		arcs[fi] = mfArc{to: v, cap: c, orig: c, rev: int(ri - start[v]), edge: eid}
		arcs[ri] = mfArc{to: u, cap: 0, orig: 0, rev: int(fi - start[u]), edge: eid}
		cur[u]++
		cur[v]++
	}
	for i := range g.edges {
		if g.removed[i] {
			continue
		}
		e := &g.edges[i]
		if e.CapFwd > 0 {
			addArc(e.U, e.V, e.CapFwd, e.ID)
		}
		if e.CapRev > 0 {
			addArc(e.V, e.U, e.CapRev, e.ID)
		}
	}

	sc.level, sc.iter = sized(sc.level, n), sized(sc.iter, n)
	level, iter := sc.level, sc.iter
	sc.queue = sized(sc.queue, n) // a search enqueues each node at most once
	queue := sc.queue[:0]
	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[src] = 0
		queue = append(queue[:0], src)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for i, end := start[u], start[u+1]; i < end; i++ {
				a := &arcs[i]
				if a.cap > flowEps && level[a.to] < 0 {
					level[a.to] = level[u] + 1
					queue = append(queue, a.to)
				}
			}
		}
		return level[dst] >= 0
	}
	var dfs func(u NodeID, f float64) float64
	dfs = func(u NodeID, f float64) float64 {
		if u == dst {
			return f
		}
		for ; iter[u] < start[u+1]-start[u]; iter[u]++ {
			a := &arcs[start[u]+iter[u]]
			if a.cap > flowEps && level[a.to] == level[u]+1 {
				d := dfs(a.to, math.Min(f, a.cap))
				if d > flowEps {
					a.cap -= d
					arcs[start[a.to]+int32(a.rev)].cap += d
					return d
				}
			}
		}
		return 0
	}

	total := 0.0
	for total < limit-flowEps && bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := dfs(src, limit-total)
			if f <= flowEps {
				break
			}
			total += f
			if total >= limit-flowEps {
				break
			}
		}
	}
	if total <= flowEps {
		return 0, nil
	}

	// Net flow on each forward arc is orig - cap; residual arcs never carry
	// positive net flow of their own. Cancel opposite-direction flows on the
	// same channel so the decomposition doesn't emit 2-cycles.
	sc.flow = sized(sc.flow, len(arcs))
	flow := sc.flow
	clear(flow)
	for i := range arcs {
		if a := &arcs[i]; a.orig > 0 {
			if f := a.orig - a.cap; f > flowEps {
				flow[i] = f
			}
		}
	}

	var paths []FlowPath
	sc.prevArc, sc.prevNode, sc.seen = sized(sc.prevArc, n), sized(sc.prevNode, n), sized(sc.seen, n)
	prevArc, prevNode, seen := sc.prevArc, sc.prevNode, sc.seen
	for iterGuard := 0; iterGuard <= len(g.edges)+1; iterGuard++ {
		for i := range prevArc {
			prevArc[i] = -1
			prevNode[i] = -1
			seen[i] = false
		}
		queue = append(queue[:0], src)
		seen[src] = true
		for qi := 0; qi < len(queue) && !seen[dst]; qi++ {
			u := queue[qi]
			for i, end := start[u], start[u+1]; i < end; i++ {
				if a := &arcs[i]; flow[i] > flowEps && !seen[a.to] {
					seen[a.to] = true
					prevArc[a.to] = i
					prevNode[a.to] = u
					queue = append(queue, a.to)
				}
			}
		}
		if !seen[dst] {
			break
		}
		amount := math.Inf(1)
		for at := dst; at != src; at = prevNode[at] {
			if f := flow[prevArc[at]]; f < amount {
				amount = f
			}
		}
		var nodes []NodeID
		var eids []EdgeID
		for at := dst; at != src; at = prevNode[at] {
			nodes = append(nodes, at)
			eids = append(eids, arcs[prevArc[at]].edge)
			flow[prevArc[at]] -= amount
		}
		nodes = append(nodes, src)
		for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
			nodes[i], nodes[j] = nodes[j], nodes[i]
		}
		for i, j := 0, len(eids)-1; i < j; i, j = i+1, j-1 {
			eids[i], eids[j] = eids[j], eids[i]
		}
		paths = append(paths, FlowPath{Path: Path{Nodes: nodes, Edges: eids}, Amount: amount})
	}
	return total, paths
}
