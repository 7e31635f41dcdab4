// Graph-owned packed adjacency (CSR). Until PR 6 the flattened arc arrays
// were a PathFinder-private mirror invalidated wholesale by the mutation
// counters: any channel open/close rebuilt the whole O(E) layout, and any
// top-up resynced the whole capacity column. The CSR is now owned by the
// Graph itself and maintained incrementally — AddEdge appends into the
// node's slab region (amortized-doubling migration when full), RemoveEdge
// compacts the region in place, and SetCapacity writes the two affected arc
// slots directly — so a one-channel top-up is O(1) and a churn event is
// O(degree), never O(E).
//
// The pointer adjacency (g.adj) stays as the build-time input and the
// order source of truth: arc order within a node's slab region always
// equals g.adj[u] order. That invariant is load-bearing — Dijkstra
// tie-breaking is observable through the golden CSVs — and is what the
// CSR/adjacency property tests pin.
package graph

// arcSpan is one node's region of the arc slab: arcs live at
// slab[off : off+n], with room to grow to off+cap before the region
// migrates to the end of the slab.
type arcSpan struct {
	off int32
	n   int32
	cap int32
}

// csrState is the packed adjacency: slab packs (other<<32 | eid) per arc,
// caps holds the directional capacity out of the arc's source node at the
// same index, span locates each node's region, and pos maps each live edge
// to the slab indices of its two arcs (U-side, V-side) so capacity writes
// and removals are O(1) lookups.
type csrState struct {
	ok      bool
	slab    []uint64
	caps    []float64
	span    []arcSpan
	pos     [][2]int32
	garbage int // slab slots abandoned by span migrations
	stats   csrStats
}

// csrStats counts CSR maintenance, so tests can pin that a given workload
// stays on the incremental path.
type csrStats struct {
	// Rebuilds counts full O(E) layout builds: the initial lazy build plus
	// any garbage-triggered compactions.
	Rebuilds uint64
	// Compactions counts the subset of Rebuilds triggered by migration
	// garbage exceeding half the slab.
	Compactions uint64
	// IncrementalOps counts shape mutations (AddNode/AddEdge/RemoveEdge)
	// applied in place without a rebuild.
	IncrementalOps uint64
	// CapacityWrites counts SetCapacity calls applied as two-slot writes.
	CapacityWrites uint64
}

func packArc(other NodeID, eid EdgeID) uint64 {
	return uint64(uint32(other))<<32 | uint64(uint32(eid))
}

// csrEnsure makes the packed adjacency valid, building it on first use.
func (g *Graph) csrEnsure() {
	if !g.csr.ok {
		g.csrRebuild()
	}
}

// csrRebuild densely lays out the slab from the pointer adjacency. Used for
// the initial lazy build and for compaction; arc order is exactly g.adj
// order, regions are tight (cap == n), and migration garbage resets to 0.
func (g *Graph) csrRebuild() {
	c := &g.csr
	n := len(g.adj)
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	if cap(c.slab) < total {
		c.slab = make([]uint64, total)
		c.caps = make([]float64, total)
	} else {
		c.slab = c.slab[:total]
		c.caps = c.caps[:total]
	}
	if cap(c.span) < n {
		c.span = make([]arcSpan, n)
	} else {
		c.span = c.span[:n]
	}
	if cap(c.pos) < len(g.edges) {
		c.pos = make([][2]int32, len(g.edges))
	} else {
		c.pos = c.pos[:len(g.edges)]
	}
	off := int32(0)
	for u := range g.adj {
		ids := g.adj[u]
		c.span[u] = arcSpan{off: off, n: int32(len(ids)), cap: int32(len(ids))}
		for _, eid := range ids {
			e := &g.edges[eid]
			if e.U == NodeID(u) {
				c.slab[off] = packArc(e.V, eid)
				c.caps[off] = e.CapFwd
				c.pos[eid][0] = off
			} else {
				c.slab[off] = packArc(e.U, eid)
				c.caps[off] = e.CapRev
				c.pos[eid][1] = off
			}
			off++
		}
	}
	c.garbage = 0
	c.ok = true
	c.stats.Rebuilds++
}

// csrAddNode appends an empty region for a new node.
func (g *Graph) csrAddNode() {
	c := &g.csr
	c.span = append(c.span, arcSpan{off: int32(len(c.slab))})
	c.stats.IncrementalOps++
}

// csrAddEdge appends the new edge's two arcs to its endpoints' regions,
// matching the g.adj append order.
func (g *Graph) csrAddEdge(id EdgeID) {
	c := &g.csr
	e := g.edges[id]
	c.pos = append(c.pos, [2]int32{-1, -1})
	g.csrInsertArc(e.U, packArc(e.V, id), e.CapFwd, id, 0)
	g.csrInsertArc(e.V, packArc(e.U, id), e.CapRev, id, 1)
	c.stats.IncrementalOps++
	if len(c.slab) > 1024 && c.garbage > len(c.slab)/2 {
		g.csrRebuild()
		c.stats.Compactions++
	}
}

// csrInsertArc places one arc at the end of u's region, migrating the
// region to the slab's end with doubled capacity when it is full. Migration
// preserves arc order, so iteration order still matches g.adj[u].
func (g *Graph) csrInsertArc(u NodeID, arc uint64, capOut float64, id EdgeID, side int) {
	c := &g.csr
	s := &c.span[u]
	if s.n < s.cap {
		i := s.off + s.n
		c.slab[i] = arc
		c.caps[i] = capOut
		c.pos[id][side] = i
		s.n++
		return
	}
	newCap := 2 * s.cap
	if newCap < 4 {
		newCap = 4
	}
	newOff := int32(len(c.slab))
	c.slab = append(c.slab, c.slab[s.off:s.off+s.n]...)
	c.caps = append(c.caps, c.caps[s.off:s.off+s.n]...)
	for i := int32(0); i < s.n; i++ {
		eid := EdgeID(uint32(c.slab[newOff+i]))
		if g.edges[eid].U == u {
			c.pos[eid][0] = newOff + i
		} else {
			c.pos[eid][1] = newOff + i
		}
	}
	c.slab = append(c.slab, arc)
	c.caps = append(c.caps, capOut)
	c.pos[id][side] = newOff + s.n
	for pad := newCap - s.n - 1; pad > 0; pad-- {
		c.slab = append(c.slab, 0)
		c.caps = append(c.caps, 0)
	}
	c.garbage += int(s.cap)
	*s = arcSpan{off: newOff, n: s.n + 1, cap: newCap}
}

// csrRemoveEdge drops the edge's two arcs by ordered in-place compaction of
// each endpoint's region — the slab analogue of dropEdgeID, so surviving
// arc order still matches g.adj.
func (g *Graph) csrRemoveEdge(id EdgeID) {
	e := g.edges[id]
	g.csrRemoveArc(e.U, id)
	g.csrRemoveArc(e.V, id)
	g.csr.stats.IncrementalOps++
}

func (g *Graph) csrRemoveArc(u NodeID, id EdgeID) {
	c := &g.csr
	s := &c.span[u]
	side := 0
	if g.edges[id].V == u {
		side = 1
	}
	end := s.off + s.n
	for j := c.pos[id][side]; j < end-1; j++ {
		a := c.slab[j+1]
		c.slab[j] = a
		c.caps[j] = c.caps[j+1]
		eid := EdgeID(uint32(a))
		if g.edges[eid].U == u {
			c.pos[eid][0] = j
		} else {
			c.pos[eid][1] = j
		}
	}
	c.pos[id][side] = -1
	s.n--
}

// csrSetCapacity applies a capacity rewrite as two direct slot writes —
// the dirty-region replacement for the old "any top-up resyncs the whole
// capacity column" invalidation.
func (g *Graph) csrSetCapacity(id EdgeID) {
	c := &g.csr
	if g.removed[id] {
		return
	}
	e := &g.edges[id]
	c.caps[c.pos[id][0]] = e.CapFwd
	c.caps[c.pos[id][1]] = e.CapRev
	c.stats.CapacityWrites++
}
