package graph

// nodeHeap is a binary min-heap of (priority, node) pairs specialized for
// Dijkstra-style traversals. Duplicate pushes of a node are allowed; stale
// entries are skipped by the caller via a visited set.
//
// The entries are fused into one struct slice (one cache line touched per
// level instead of two parallel arrays) and the sifts are hole-based (the
// moving entry is written once at its final position instead of swapped
// down level by level). Both are pure constant-factor changes: the
// comparison predicate and child-visit order are unchanged, so the pop
// order — including the order of equal-priority entries, which Dijkstra's
// tie-breaking inherits — is bit-identical to the former swap-based
// two-array heap. This heap is the simulator's hottest loop (every edge
// relaxation of every route computation passes through it).
type nodeHeapEntry struct {
	prio float64
	node NodeID
}

type nodeHeap struct {
	entries []nodeHeapEntry
}

func (h *nodeHeap) len() int { return len(h.entries) }

// reset empties the heap, keeping its backing array for reuse.
func (h *nodeHeap) reset() { h.entries = h.entries[:0] }

func (h *nodeHeap) push(n NodeID, p float64) {
	h.entries = append(h.entries, nodeHeapEntry{prio: p, node: n})
	e := h.entries
	i := len(e) - 1
	moving := e[i]
	for i > 0 {
		parent := (i - 1) / 2
		if e[parent].prio <= moving.prio {
			break
		}
		e[i] = e[parent]
		i = parent
	}
	e[i] = moving
}

func (h *nodeHeap) pop() (NodeID, float64) {
	e := h.entries
	top := e[0]
	last := len(e) - 1
	moving := e[last]
	h.entries = e[:last]
	e = h.entries
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		best := moving.prio
		if l < last && e[l].prio < best {
			smallest, best = l, e[l].prio
		}
		if r < last && e[r].prio < best {
			smallest = r
		}
		if smallest == i {
			break
		}
		e[i] = e[smallest]
		i = smallest
	}
	if last > 0 {
		e[i] = moving
	}
	return top.node, top.prio
}

// unitHeap is nodeHeap specialized for unit-weight (hop-count) queries:
// each entry packs (hops, node) into one uint64, so a sift touches 8 bytes
// per level and compares integers. Comparisons use only the hop half
// (a>>32 < b>>32) — the same strict-less predicate as nodeHeap — and the
// push/pop mechanics mirror nodeHeap exactly, so the pop order (ties
// included) is identical to running the float heap on the same sequence.
// Hop counts fit 32 bits by a margin of the graph's diameter.
type unitHeap struct {
	entries []uint64
}

func (h *unitHeap) len() int { return len(h.entries) }

func (h *unitHeap) reset() { h.entries = h.entries[:0] }

func (h *unitHeap) push(n NodeID, hops int) {
	moving := uint64(hops)<<32 | uint64(uint32(n))
	h.entries = append(h.entries, moving)
	e := h.entries
	i := len(e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e[parent]>>32 <= moving>>32 {
			break
		}
		e[i] = e[parent]
		i = parent
	}
	e[i] = moving
}

func (h *unitHeap) pop() (NodeID, int) {
	e := h.entries
	top := e[0]
	last := len(e) - 1
	moving := e[last]
	h.entries = e[:last]
	e = h.entries
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		best := moving >> 32
		if l < last && e[l]>>32 < best {
			smallest, best = l, e[l]>>32
		}
		if r < last && e[r]>>32 < best {
			smallest = r
		}
		if smallest == i {
			break
		}
		e[i] = e[smallest]
		i = smallest
	}
	if last > 0 {
		e[i] = moving
	}
	return NodeID(uint32(top)), int(top >> 32)
}

// candidateHeap is a binary min-heap of Yen candidate paths ordered by
// (cost, insertion sequence). The sequence tie-break makes pop order match
// the stable sort the algorithm previously used, so equal-cost paths keep
// their discovery order.
type candidateHeap struct {
	paths []Path
	costs []float64
	seqs  []uint64
	// spurs records each candidate's spur index (where it deviated from the
	// result path that spawned it), for Lawler's skip in the next round.
	spurs []int
}

func (h *candidateHeap) len() int { return len(h.paths) }

func (h *candidateHeap) less(i, j int) bool {
	if h.costs[i] != h.costs[j] {
		return h.costs[i] < h.costs[j]
	}
	return h.seqs[i] < h.seqs[j]
}

func (h *candidateHeap) swap(i, j int) {
	h.paths[i], h.paths[j] = h.paths[j], h.paths[i]
	h.costs[i], h.costs[j] = h.costs[j], h.costs[i]
	h.seqs[i], h.seqs[j] = h.seqs[j], h.seqs[i]
	h.spurs[i], h.spurs[j] = h.spurs[j], h.spurs[i]
}

// reset empties the heap, releasing the leftover candidates' paths.
func (h *candidateHeap) reset() {
	clear(h.paths)
	h.paths = h.paths[:0]
	h.costs = h.costs[:0]
	h.seqs = h.seqs[:0]
	h.spurs = h.spurs[:0]
}

func (h *candidateHeap) push(p Path, cost float64, seq uint64, spur int) {
	h.paths = append(h.paths, p)
	h.costs = append(h.costs, cost)
	h.seqs = append(h.seqs, seq)
	h.spurs = append(h.spurs, spur)
	i := len(h.paths) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *candidateHeap) pop() (Path, int) {
	p, spur := h.paths[0], h.spurs[0]
	last := len(h.paths) - 1
	h.swap(0, last)
	h.paths[last] = Path{} // release the path's slices
	h.paths = h.paths[:last]
	h.costs = h.costs[:last]
	h.seqs = h.seqs[:last]
	h.spurs = h.spurs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.less(l, smallest) {
			smallest = l
		}
		if r < last && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return p, spur
}
