// Incremental τ-tick bookkeeping. The original onTauTick rebuilt its
// working sets from scratch every tick — sorting a pairs slice out of the
// rateCtl map, sorting an ids slice out of txState, allocating a fresh
// refreshed-set map, and walking every channel in the network including
// idle ones — an O(ticks·(P log P + C)) term that dominated long-horizon
// runs. This file replaces those with incrementally maintained registries:
//
//   - pairList: the rate-controlled pairs in ascending order, inserted once
//     at controller creation (pairs are never removed);
//   - activeTx: the in-flight payments, appended at dispatch and
//     swap-removed at finish, snapshotted and sorted per tick (O(active));
//   - RateController.TryMarkRefreshed: a generation stamp replacing the
//     per-tick map[*RateController]bool;
//   - a dirty-channel set: only channels with queued TUs, unreset window
//     statistics or a decaying capacity price are visited by the
//     maintenance pass (see Channel.NeedsMaintenance).
//
// The dirty-channel pass must replicate the full scan bit for bit. The full
// scan visited every channel once in ascending EdgeID order; visits to
// quiescent channels were no-ops. So the pass processes the dirty set in
// ascending order through a min-heap worklist, and a channel touched
// mid-pass joins this pass if its id is still ahead of the cursor (the
// full scan would reach it later this tick) or waits for the next tick if
// the cursor already passed it (the full scan visited it while it was
// still quiescent).
package pcn

import (
	"cmp"
	"slices"
	"sort"

	"github.com/splicer-pcn/splicer/internal/channel"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/sim"
)

// Dirty-channel states.
const (
	chClean   uint8 = iota // quiescent: the maintenance pass skips it
	chPending              // in dirtyChans, awaiting the next pass
	chQueued               // in tickHeap, processed later this pass
)

// edgeHeap is a binary min-heap of edge ids — the maintenance pass
// worklist. No interface boxing, no allocation after warmup.
type edgeHeap []graph.EdgeID

func (h *edgeHeap) push(id graph.EdgeID) {
	*h = append(*h, id)
	e := *h
	i := len(e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e[parent] <= id {
			break
		}
		e[i] = e[parent]
		i = parent
	}
	e[i] = id
}

func (h *edgeHeap) pop() graph.EdgeID {
	e := *h
	top := e[0]
	last := len(e) - 1
	moving := e[last]
	*h = e[:last]
	e = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		best := moving
		if l < last && e[l] < best {
			smallest, best = l, e[l]
		}
		if r < last && e[r] < best {
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
	return top
}

// metricHandles interns every fixed metric name the payment lifecycle
// touches, so the per-hop hot path indexes an array instead of hashing a
// string (and the reason-suffixed failure counters skip the string
// concatenation after their first use).
type metricHandles struct {
	txGenerated, txCompleted, txFailed, valueCompleted, fees sim.CounterHandle
	tuSent, tuQueued, tuCompleted, tuFailed, tuMarked        sim.CounterHandle
	tuHeld, tuHeldValue                                      sim.CounterHandle
	tuRetried, tuRetryRecovered, tuRetryExhausted            sim.CounterHandle
	advGenerated, advCompleted, advFailed                    sim.CounterHandle
	txDelay, queueDelay                                      sim.SampleHandle
	tuFailedReason, txFailedReason                           map[string]sim.CounterHandle

	// Route-computation effectiveness counters, flushed once per run by
	// summarize() from the RouteCache and hub-label snapshots so they land in
	// the same metrics registry (and hence the panel CSVs) as the payment
	// counters.
	routeCacheHits, routeCacheMisses, routeCacheInvalidations sim.CounterHandle
	labelServed, labelFallbacks, labelBuilds, labelRepairs    sim.CounterHandle
}

func (n *Network) initMetricHandles() {
	m := n.metrics
	n.mh = metricHandles{
		txGenerated:      m.CounterHandle("tx_generated"),
		txCompleted:      m.CounterHandle("tx_completed"),
		txFailed:         m.CounterHandle("tx_failed"),
		valueCompleted:   m.CounterHandle("value_completed"),
		fees:             m.CounterHandle("fees"),
		tuSent:           m.CounterHandle("tu_sent"),
		tuQueued:         m.CounterHandle("tu_queued"),
		tuCompleted:      m.CounterHandle("tu_completed"),
		tuFailed:         m.CounterHandle("tu_failed"),
		tuMarked:         m.CounterHandle("tu_marked"),
		tuHeld:           m.CounterHandle("tu_held"),
		tuHeldValue:      m.CounterHandle("tu_held_value"),
		tuRetried:        m.CounterHandle("tu_retried"),
		tuRetryRecovered: m.CounterHandle("tu_retry_recovered"),
		tuRetryExhausted: m.CounterHandle("tu_retry_exhausted"),
		advGenerated:     m.CounterHandle("adv_generated"),
		advCompleted:     m.CounterHandle("adv_completed"),
		advFailed:        m.CounterHandle("adv_failed"),
		txDelay:          m.SampleHandle("tx_delay"),
		queueDelay:       m.SampleHandle("queue_delay"),
		tuFailedReason:   map[string]sim.CounterHandle{},
		txFailedReason:   map[string]sim.CounterHandle{},

		routeCacheHits:          m.CounterHandle("route_cache_hits"),
		routeCacheMisses:        m.CounterHandle("route_cache_misses"),
		routeCacheInvalidations: m.CounterHandle("route_cache_invalidations"),
		labelServed:             m.CounterHandle("label_served"),
		labelFallbacks:          m.CounterHandle("label_fallbacks"),
		labelBuilds:             m.CounterHandle("label_builds"),
		labelRepairs:            m.CounterHandle("label_repairs"),
	}
}

func (n *Network) tuFailedReasonHandle(reason string) sim.CounterHandle {
	if h, ok := n.mh.tuFailedReason[reason]; ok {
		return h
	}
	h := n.metrics.CounterHandle("tu_failed_" + reason)
	n.mh.tuFailedReason[reason] = h
	return h
}

func (n *Network) txFailedReasonHandle(reason string) sim.CounterHandle {
	if h, ok := n.mh.txFailedReason[reason]; ok {
		return h
	}
	h := n.metrics.CounterHandle("tx_failed_" + reason)
	n.mh.txFailedReason[reason] = h
	return h
}

// touchChannel marks a channel as possibly needing τ-tick maintenance.
// Called from every site that mutates channel window statistics or queues;
// spurious touches are harmless (the pass re-checks NeedsMaintenance).
func (n *Network) touchChannel(eid graph.EdgeID) {
	if int(eid) >= len(n.chanState) {
		grown := make([]uint8, len(n.chans))
		copy(grown, n.chanState)
		n.chanState = grown
	}
	if n.chanState[eid] != chClean {
		return
	}
	if n.inTickPass && eid > n.tickCursor {
		n.chanState[eid] = chQueued
		n.tickHeap.push(eid)
	} else {
		n.chanState[eid] = chPending
		n.dirtyChans = append(n.dirtyChans, eid)
	}
}

// runChannelMaintenance is the per-τ channel sweep: price updates, stale
// marking and aborts, and queue drains, over exactly the channels where any
// of that can matter, in ascending EdgeID order like the full scan it
// replaces.
func (n *Network) runChannelMaintenance(now float64) {
	if len(n.dirtyChans) == 0 {
		return
	}
	h := append(n.tickHeap[:0], n.dirtyChans...)
	n.dirtyChans = n.dirtyChans[:0]
	// Heapify bottom-up (the list is unsorted insertion order).
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownEdges(h, i)
	}
	n.tickHeap = h
	usesPrices := n.usesPrices()
	n.inTickPass = true
	for len(n.tickHeap) > 0 {
		eid := n.tickHeap.pop()
		n.tickCursor = eid
		n.chanState[eid] = chClean
		ch := n.chans[eid]
		if ch.Closed() {
			continue // queues already unwound at close; no prices to update
		}
		if usesPrices {
			ch.UpdatePrices(n.cfg.Kappa, n.cfg.Eta)
		} else {
			// Window/processing budgets still reset each τ.
			ch.UpdatePrices(0, 0)
		}
		for _, dir := range []channel.Direction{channel.Fwd, channel.Rev} {
			n.staleBuf = ch.MarkStale(dir, now, n.cfg.QueueDelayThreshold, n.staleBuf[:0])
			for _, q := range n.staleBuf {
				n.metrics.AddHandle(n.mh.tuMarked, 1)
				// The sender cancels marked packets (eq. 27 path). A TU
				// that left this queue and joined it again since
				// MarkStale holds a fresh, unmarked entry.
				if tu := waitingTU(q, ch, dir); tu != nil && q.Marked {
					n.abortTU(tu, "marked")
				}
			}
			n.drainQueue(ch, dir)
		}
		// A decaying price or a still-occupied queue keeps the channel in
		// next tick's pass (unless its own drain already re-marked it).
		if n.chanState[eid] == chClean && ch.NeedsMaintenance() {
			n.chanState[eid] = chPending
			n.dirtyChans = append(n.dirtyChans, eid)
		}
	}
	n.inTickPass = false
}

// siftDownEdges restores the min-heap property at index i (heapify helper).
func siftDownEdges(h edgeHeap, i int) {
	n := len(h)
	moving := h[i]
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		best := moving
		if l < n && h[l] < best {
			smallest, best = l, h[l]
		}
		if r < n && h[r] < best {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i] = h[smallest]
		i = smallest
	}
	h[i] = moving
}

// registerPair inserts a new rate-controlled pair into the ascending
// registry. Called once per pair (controller replacement after a re-plan
// reuses the slot), so the shift is amortized away from the tick path.
func (n *Network) registerPair(p pairKey) {
	i := sort.Search(len(n.pairList), func(i int) bool {
		q := n.pairList[i]
		return q.s > p.s || (q.s == p.s && q.e >= p.e)
	})
	n.pairList = append(n.pairList, pairKey{})
	copy(n.pairList[i+1:], n.pairList[i:])
	n.pairList[i] = p
}

// registerTx adds a dispatched payment to the active registry.
func (n *Network) registerTx(run *txRun) {
	run.regIdx = len(n.activeTx)
	n.activeTx = append(n.activeTx, run)
}

// unregisterTx swap-removes a finished payment (finishTx).
func (n *Network) unregisterTx(run *txRun) {
	last := len(n.activeTx) - 1
	moved := n.activeTx[last]
	n.activeTx[run.regIdx] = moved
	moved.regIdx = run.regIdx
	n.activeTx[last] = nil
	n.activeTx = n.activeTx[:last]
}

// refreshController applies the τ-probe update (eq. 26) to one controller
// against its planned path set, at most once per tick generation.
func (n *Network) refreshController(rc *routing.RateController, paths []graph.Path, gen uint64) {
	if rc == nil || len(paths) == 0 || !rc.TryMarkRefreshed(gen) {
		return
	}
	for i := 0; i < rc.NumPaths() && i < len(paths); i++ {
		price := routing.PathPrice(paths[i], n.cfg.TFee, n.priceFn)
		rc.UpdateRate(i, price)
		rc.RefillBudget(i, n.cfg.UpdateTau)
	}
}

// priceOf reads a channel's directional routing price ξ (bound once into
// priceFn so the probe loop passes a prebuilt closure, not a fresh method
// value per path).
func (n *Network) priceOf(e graph.EdgeID, from graph.NodeID) float64 {
	ch := n.chans[e]
	return ch.Price(ch.DirFrom(from))
}

// sortTickSnapshot fills the reusable scratch with the active payments in
// ascending id order — the same iteration order the per-tick ids sort used
// to produce from the former id-keyed payment map. The caller (onTauTick) clears the
// snapshot after use, so between ticks the scratch holds no references.
func (n *Network) sortTickSnapshot() []*txRun {
	scratch := append(n.tickTx[:0], n.activeTx...)
	slices.SortFunc(scratch, func(a, b *txRun) int { return cmp.Compare(a.tx.ID, b.tx.ID) })
	n.tickTx = scratch
	return scratch
}
