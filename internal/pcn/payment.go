package pcn

import (
	"errors"
	"sort"

	"github.com/splicer-pcn/splicer/internal/channel"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/htlc"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/sim"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// txRun tracks one payment through its lifetime. It is the deadline
// watchdog's sim.Handler.
type txRun struct {
	net       *Network
	tx        workload.Tx
	pair      pairKey
	paths     []graph.Path
	remaining int // unresolved TUs
	failed    bool
	finished  bool
	deadline  sim.Event
	// regIdx is the payment's slot in the active-payment registry
	// (tick.go); maintained by registerTx/unregisterTx.
	regIdx int
	// rc is the rate controller this payment was dispatched under. It is
	// held by instance, not looked up by pair: a topology mutation can
	// re-plan the pair with a different path count, which swaps the pair's
	// controller — in-flight TUs must keep resolving against the controller
	// whose windows they occupy.
	rc *routing.RateController
	// pending holds TUs waiting for window room (rate-controlled schemes):
	// the unsent suffix of the payment's TU slab, which they leave in id
	// order.
	pending []tuRun
	// live TUs for deadline unwinding (swap-remove registry; a map here
	// cost an allocation per payment and a hash per TU transition).
	// dispatch sizes it to the payment's TU count, which it never exceeds.
	live []*tuRun
}

// Fire is the deadline watchdog.
func (run *txRun) Fire() { run.net.onDeadline(run) }

// tuRun is one transaction-unit in flight. dispatch allocates a payment's
// TUs as one slab. A tuRun is its own per-hop timer (sim.Handler), so
// forwarding allocates no closure.
type tuRun struct {
	id      uint64
	tx      *txRun
	pathIdx int
	path    graph.Path
	value   float64
	hop     int // next hop index to traverse
	// htlc is the TU's contract chain: the lock every hop shares, stored
	// once, and a state per currently locked hop in the payment's state
	// slab.
	htlc     htlc.Hops
	queued   *channel.QueuedTU
	queuedAt struct {
		ch  *channel.Channel
		dir channel.Direction
	}
	liveIdx int
	done    bool
	// attempts counts completed send attempts beyond the first (see
	// retry.go); 0 unless Config.Retry is armed and this TU was retried.
	attempts int
	// pre is the TU's HTLC preimage, a pure function of the TU id, derived
	// when the TU starts; its hash is htlc.Lock.Hash. The recipient's
	// reveal hashes it once more at settlement, and each hop then compares
	// that hash with the lock instead of running SHA-256 itself.
	pre [32]byte
}

// Fire forwards the TU over its next hop.
func (tu *tuRun) Fire() { tu.tx.net.advanceTU(tu) }

// onArrival is the entry point for a generated payment: it models the
// route-computation service time (at the sender for source routing, at the
// managing hub for hub-based policies) and then dispatches. Which node pays
// the compute cost, and any epoch alignment, come from the SchemePolicy.
func (n *Network) onArrival(tx workload.Tx) {
	if tx.Adversarial {
		n.metrics.AddHandle(n.mh.advGenerated, 1)
	} else {
		n.metrics.AddHandle(n.mh.txGenerated, 1)
	}
	owner, service := n.policy.ComputeOwner(n, tx)
	now := n.engine.Now()
	free := n.cpuFree[owner]
	if free < now {
		free = now
	}
	free = n.policy.AlignDispatch(n, free)
	start := free + service
	n.cpuFree[owner] = start
	if _, err := n.engine.Schedule(start, 2, func() { n.dispatch(tx) }); err != nil {
		// Scheduling in the past is impossible here (start >= now).
		panic(err)
	}
}

// dispatch plans paths and TUs for the payment and starts sending.
func (n *Network) dispatch(tx workload.Tx) {
	if n.engine.Now() >= tx.Deadline {
		// Route computation (sender CPU or hub crypto backlog) outlasted
		// the payment timeout.
		n.failTx(&txRun{tx: tx}, "compute_backlog")
		return
	}
	paths, allocs, err := n.policy.Plan(n, tx)
	if err != nil || len(paths) == 0 || len(allocs) == 0 {
		reason := "no_route"
		if errors.Is(err, ErrNoFlow) {
			// Connectivity existed but the candidate paths could not carry
			// the value (max-flow infeasible) — a capacity failure, not a
			// reachability failure, so it gets its own reason column.
			reason = "no_flow"
		}
		n.failTx(&txRun{tx: tx}, reason)
		return
	}
	run := &txRun{
		net:   n,
		tx:    tx,
		pair:  pairKey{tx.Sender, tx.Recipient},
		paths: paths,
		live:  make([]*tuRun, 0, len(allocs)),
	}
	n.txState[tx.ID] = run
	n.registerTx(run)

	rateControlled := n.splitsTUs()
	if rateControlled {
		// Register the planned path set for the τ-probe loop, which
		// refreshes path prices and rates per pair each tick.
		n.pathsFor[run.pair] = paths
		rc, ok := n.rateCtl[run.pair]
		if !ok || rc.NumPaths() != len(paths) {
			// First payment for the pair, or the pair was re-planned with a
			// different path count after a topology mutation: the old
			// controller's per-path state no longer maps onto the path set,
			// so it restarts from the initial rates. Payments in flight keep
			// their own controller reference.
			var rcErr error
			rc, rcErr = routing.NewRateController(len(paths), n.cfg.Alpha, n.cfg.Beta, n.cfg.Gamma, n.cfg.InitPathRate, n.cfg.InitWindow)
			if rcErr != nil {
				n.failTx(run, "controller")
				return
			}
			if !ok {
				n.registerPair(run.pair)
			}
			n.rateCtl[run.pair] = rc
		}
		run.rc = rc
	}

	run.remaining = len(allocs)
	// One slab holds the payment's TUs and one their hop states, with room
	// for the longest planned path per TU.
	maxHops := 0
	for _, p := range paths {
		maxHops = max(maxHops, p.Len())
	}
	tus := make([]tuRun, len(allocs))
	states := make([]htlc.State, len(allocs)*maxHops)
	for i, a := range allocs {
		tu := &tus[i]
		*tu = tuRun{
			id:      n.nextTUID,
			tx:      run,
			pathIdx: a.PathIdx,
			value:   a.Value,
			htlc:    htlc.NewHops(states[i*maxHops : i*maxHops : (i+1)*maxHops]),
		}
		n.nextTUID++
		if !rateControlled {
			tu.path = paths[tu.pathIdx]
			n.startTU(tu)
		}
	}
	if rateControlled {
		run.pending = tus
		n.drainPending(run)
	}
	// Deadline watchdog.
	ev, err := n.engine.ScheduleHandler(tx.Deadline, 0, run)
	if err != nil {
		panic(err)
	}
	run.deadline = ev
}

// drainPending dispatches waiting TUs of a payment while window room
// exists.
func (n *Network) drainPending(run *txRun) {
	if run.failed {
		return
	}
	rc := run.rc
	if rc == nil {
		return
	}
	for len(run.pending) > 0 {
		tu := &run.pending[0]
		i := rc.PickPath(tu.value)
		if i < 0 {
			return // every path window- or budget-blocked; retried on tick/ack
		}
		run.pending = run.pending[1:]
		tu.pathIdx = i
		tu.path = run.paths[i]
		rc.OnSend(i, tu.value)
		n.startTU(tu)
	}
}

// startTU begins forwarding a TU from its source.
func (n *Network) startTU(tu *tuRun) {
	tu.liveIdx = len(tu.tx.live)
	tu.tx.live = append(tu.tx.live, tu)
	tu.pre = htlc.NewPreimage(tu.id)
	lock, err := htlc.NewLock(htlc.LockHash(tu.pre), tu.value, tu.tx.tx.Deadline)
	if err != nil {
		panic(err) // value > 0 by construction
	}
	tu.htlc.Lock = lock
	n.metrics.AddHandle(n.mh.tuSent, 1)
	n.advanceTU(tu)
}

// advanceTU attempts the TU's next hop, queuing or aborting on resource
// exhaustion.
func (n *Network) advanceTU(tu *tuRun) {
	if tu.done {
		return
	}
	now := n.engine.Now()
	if now > tu.tx.tx.Deadline {
		n.abortTU(tu, "deadline")
		return
	}
	if tu.hop >= len(tu.path.Edges) {
		n.completeTU(tu)
		return
	}
	eid := tu.path.Edges[tu.hop]
	from := tu.path.Nodes[tu.hop]
	ch := n.chans[eid]
	if ch.Closed() {
		// The channel closed after this TU's path was planned (the route
		// cache was invalidated, but in-flight TUs keep their path).
		n.abortTU(tu, "channel_closed")
		return
	}
	dir := ch.DirFrom(from)
	ch.AddRequired(dir, tu.value)
	n.touchChannel(eid)
	if ch.CanForward(dir, tu.value) {
		n.lockAndHop(tu, ch, dir)
		return
	}
	if n.usesQueues() {
		q := &channel.QueuedTU{
			ID:       tu.id,
			Value:    tu.value,
			Deadline: tu.tx.tx.Deadline,
			Enqueued: now,
		}
		q.Resume = func() { n.resumeQueued(tu, ch, dir) }
		if err := ch.Enqueue(dir, q); err != nil {
			n.abortTU(tu, "queue_full")
			return
		}
		tu.queued = q
		tu.queuedAt.ch = ch
		tu.queuedAt.dir = dir
		n.queuedIndex[q] = tu
		n.metrics.AddHandle(n.mh.tuQueued, 1)
		return
	}
	n.abortTU(tu, "no_funds")
}

// resumeQueued is called when a queued TU is dequeued for another attempt.
func (n *Network) resumeQueued(tu *tuRun, ch *channel.Channel, dir channel.Direction) {
	if tu.queued != nil {
		n.metrics.ObserveHandle(n.mh.queueDelay, n.engine.Now()-tu.queued.Enqueued)
		delete(n.queuedIndex, tu.queued)
	}
	tu.queued = nil
	tu.queuedAt.ch = nil
	if tu.done || tu.tx.failed {
		return
	}
	if ch.CanForward(dir, tu.value) {
		n.lockAndHop(tu, ch, dir)
	} else {
		// Still blocked: go around again.
		n.advanceTU(tu)
	}
}

// lockAndHop locks the TU's value on the channel and schedules arrival at
// the next node.
func (n *Network) lockAndHop(tu *tuRun, ch *channel.Channel, dir channel.Direction) {
	if err := ch.Lock(dir, tu.value); err != nil {
		n.abortTU(tu, "lock_race")
		return
	}
	n.touchChannel(ch.Edge) // the lock consumed processing-rate budget
	tu.htlc.Offer()
	tu.hop++
	if _, err := n.engine.AfterHandler(n.cfg.HopDelay, 3, tu); err != nil {
		panic(err)
	}
}

// completeTU settles the TU end-to-end (or parks it when the sender is
// withholding the preimage).
func (n *Network) completeTU(tu *tuRun) {
	if tu.done {
		return
	}
	if tu.tx.tx.Hold > 0 {
		n.holdTU(tu)
		return
	}
	tu.done = true
	tu.tx.removeLive(tu)
	now := n.engine.Now()
	// The recipient reveals the preimage, hashed once for every hop's check.
	revealed := htlc.Reveal(tu.pre)
	// Settle HTLCs recipient-backwards, moving funds on each channel.
	for i := tu.htlc.Len() - 1; i >= 0; i-- {
		if err := tu.htlc.Settle(i, revealed, now); err != nil {
			// The deadline watchdog fires strictly at Deadline with higher
			// priority, so an expired contract here means the TU raced it;
			// treat as abort.
			n.abortLockedHops(tu, i+1)
			n.resolveTU(tu, false, "htlc_expired")
			return
		}
		eid := tu.path.Edges[i]
		from := tu.path.Nodes[i]
		ch := n.chans[eid]
		dir := ch.DirFrom(from)
		if err := ch.Settle(dir, tu.value); err != nil {
			panic(err) // locked funds are tracked exactly
		}
		n.touchChannel(eid) // the arrival feeds the next imbalance-price update
		n.metrics.AddHandle(n.mh.fees, ch.Fee(dir, n.cfg.TFee)*tu.value)
		n.drainQueue(ch, dir.Reverse()) // reverse direction gained funds
	}
	n.resolveTU(tu, true, "")
}

// holdTU parks a fully locked TU instead of settling it: the sender
// withholds the settlement preimage, so every hop's HTLC stays locked —
// value unusable by honest traffic — until the hold expires or the payment
// deadline forces the unwind (the channel-jamming/griefing primitive). The
// release refunds hop by hop through the normal abort path, so the deadline
// watchdog and the release event are mutually idempotent via tu.done.
func (n *Network) holdTU(tu *tuRun) {
	n.metrics.AddHandle(n.mh.tuHeld, 1)
	n.metrics.AddHandle(n.mh.tuHeldValue, tu.value*float64(tu.htlc.Len()))
	release := n.engine.Now() + tu.tx.tx.Hold
	if release > tu.tx.tx.Deadline {
		release = tu.tx.tx.Deadline
	}
	if _, err := n.engine.Schedule(release, 0, func() { n.abortTU(tu, "held_released") }); err != nil {
		panic(err) // release >= now by construction
	}
}

// abortTU refunds a TU's locked hops and resolves it as failed.
func (n *Network) abortTU(tu *tuRun, reason string) {
	if tu.done {
		return
	}
	tu.done = true
	tu.tx.removeLive(tu)
	if tu.queued != nil && tu.queuedAt.ch != nil {
		tu.queuedAt.ch.RemoveQueued(tu.queuedAt.dir, tu.queued)
		delete(n.queuedIndex, tu.queued)
		tu.queued = nil
	}
	n.abortLockedHops(tu, tu.htlc.Len())
	n.resolveTU(tu, false, reason)
}

// abortLockedHops refunds the first `through` locked hops, failing their
// pending contracts, and empties the TU's contract chain.
func (n *Network) abortLockedHops(tu *tuRun, through int) {
	for i := 0; i < through && i < tu.htlc.Len(); i++ {
		if tu.htlc.State(i) == htlc.Pending {
			_ = tu.htlc.Fail(i)
		}
		eid := tu.path.Edges[i]
		from := tu.path.Nodes[i]
		ch := n.chans[eid]
		dir := ch.DirFrom(from)
		if err := ch.Refund(dir, tu.value); err != nil {
			panic(err)
		}
		n.drainQueue(ch, dir) // the forward direction regained funds
	}
	tu.htlc.Reset()
}

// resolveTU updates rate control and the parent payment. When the retry
// layer is armed it sees every resolution first: outcomes feed the
// reliability store, and a retryable abort may resurrect the TU instead of
// resolving it (see retry.go).
func (n *Network) resolveTU(tu *tuRun, ok bool, reason string) {
	if n.relStore != nil {
		n.observeTU(tu, ok, reason)
		if !ok && n.maybeRetryTU(tu, reason) {
			return
		}
	}
	run := tu.tx
	if rc := run.rc; rc != nil && tu.path.Len() > 0 {
		if ok {
			rc.OnSuccess(tu.pathIdx)
		} else {
			rc.OnAbort(tu.pathIdx)
		}
		n.drainPending(run)
	}
	run.remaining--
	if ok {
		n.metrics.AddHandle(n.mh.tuCompleted, 1)
		if tu.attempts > 0 {
			n.metrics.AddHandle(n.mh.tuRetryRecovered, 1)
		}
	} else {
		n.metrics.AddHandle(n.mh.tuFailed, 1)
		n.metrics.AddHandle(n.tuFailedReasonHandle(reason), 1)
		if tu.attempts > 0 {
			n.metrics.AddHandle(n.mh.tuRetryExhausted, 1)
		}
		if !run.failed {
			run.failed = true
			n.cancelTx(run)
		}
	}
	if run.remaining == 0 {
		n.finishTx(run)
	}
}

// removeLive swap-removes a TU from the live registry.
func (run *txRun) removeLive(tu *tuRun) {
	last := len(run.live) - 1
	moved := run.live[last]
	run.live[tu.liveIdx] = moved
	moved.liveIdx = tu.liveIdx
	run.live[last] = nil
	run.live = run.live[:last]
}

// cancelTx aborts a payment's remaining TUs (queued or pending; in-flight
// locked TUs unwind too).
func (n *Network) cancelTx(run *txRun) {
	run.pending = nil
	// Copy and order by TU id: abortTU mutates run.live, and the registry's
	// swap-remove order must not leak into simulation behavior (the former
	// map iteration was sorted the same way).
	live := append([]*tuRun(nil), run.live...)
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, tu := range live {
		n.abortTU(tu, "sibling_failed")
	}
}

// onDeadline fires at the payment's timeout.
func (n *Network) onDeadline(run *txRun) {
	if run.remaining <= 0 {
		return
	}
	run.failed = true
	// Pending TUs never occupied a window slot; they simply fail.
	pendingCount := len(run.pending)
	run.pending = nil
	run.remaining -= pendingCount
	n.metrics.AddHandle(n.mh.tuFailed, float64(pendingCount))
	n.cancelTx(run)
	if run.remaining <= 0 {
		n.finishTx(run)
	}
}

// finishTx records the payment outcome once every TU resolved. Idempotent:
// the deadline watchdog and the last TU's resolution can both reach it.
func (n *Network) finishTx(run *txRun) {
	if run.finished {
		return
	}
	run.finished = true
	run.deadline.Cancel()
	run.deadline = sim.Event{}
	delete(n.txState, run.tx.ID)
	n.unregisterTx(run)
	now := n.engine.Now()
	ok := !run.failed && now <= run.tx.Deadline+1e-9
	// Adversarial payments resolve into their own counters: Generated,
	// Completed and the unresolved-at-horizon audit in Execute all measure
	// honest demand only.
	if run.tx.Adversarial {
		if ok {
			n.metrics.AddHandle(n.mh.advCompleted, 1)
		} else {
			n.metrics.AddHandle(n.mh.advFailed, 1)
		}
		return
	}
	if ok {
		n.metrics.AddHandle(n.mh.txCompleted, 1)
		n.metrics.AddHandle(n.mh.valueCompleted, run.tx.Value)
		n.metrics.ObserveHandle(n.mh.txDelay, now-run.tx.Arrival)
	} else {
		n.metrics.AddHandle(n.mh.txFailed, 1)
	}
}

// drainQueue serves a channel direction's waiting queue while funds and the
// processing budget allow, in scheduler order.
func (n *Network) drainQueue(ch *channel.Channel, dir channel.Direction) {
	if !n.usesQueues() {
		return
	}
	for ch.QueueLen(dir) > 0 {
		// Peek via dequeue: if the chosen TU cannot be forwarded the queue
		// stays blocked (head-of-line under the chosen discipline).
		q := ch.Dequeue(dir, n.cfg.Scheduler)
		if q == nil {
			return
		}
		if q.Resume == nil {
			continue
		}
		if !ch.CanForward(dir, q.Value) {
			// Put it back and stop; re-enqueue preserves Enqueued time.
			if err := ch.Enqueue(dir, q); err != nil {
				// Queue shrank since we dequeued, so re-adding cannot
				// overflow; be defensive anyway.
				q.Resume()
			}
			return
		}
		q.Resume()
	}
}

// onTauTick is the τ-periodic maintenance: price updates (eqs. 21-22),
// stale marking and abort (congestion control), queue draining and probe-
// based rate updates (eq. 26). All working sets are incrementally
// maintained (see tick.go): the channel sweep visits only dirty channels,
// the probe loop walks the sorted pair registry and an id-sorted snapshot
// of the active payments, and controller refresh dedup is a generation
// stamp — each in the same deterministic order as the full-scan original.
func (n *Network) onTauTick() {
	now := n.engine.Now()
	n.policy.OnTick(n)
	n.runChannelMaintenance(now)
	if n.usesPrices() {
		// Probes: refresh every cached pair's path prices (eq. 26). Each
		// controller is refreshed at most once per tick generation
		// (RefillBudget grants rate·τ tokens; a double refresh would double
		// the budget).
		n.tickGen++
		gen := n.tickGen
		for _, pair := range n.pairList {
			n.refreshController(n.rateCtl[pair], n.pathsFor[pair], gen)
		}
		// In-flight payments whose controller was superseded by a re-plan
		// (topology mutation changed the pair's path count) keep receiving
		// refills against their own planned path set; otherwise their
		// pending TUs would starve on an empty budget until the deadline.
		ticking := n.sortTickSnapshot()
		for _, run := range ticking {
			n.refreshController(run.rc, run.paths, gen)
		}
		// Payments can finish while the snapshot drains (a synchronous
		// abort cascading through resolveTU); drainPending on a finished
		// run is a harmless no-op, where the old map re-lookup by id would
		// have dereferenced nil.
		for _, run := range ticking {
			n.drainPending(run)
		}
		// Drop the snapshot's references so the reused scratch never pins
		// finished payments (and their path/TU state) past the tick.
		clear(ticking)
		n.tickTx = ticking[:0]
	}
}

// findQueuedTU maps a channel queue entry back to its tuRun.
func (n *Network) findQueuedTU(q *channel.QueuedTU) *tuRun {
	return n.queuedIndex[q]
}

// failTx records an immediately failed payment (no route, etc.).
func (n *Network) failTx(run *txRun, reason string) {
	if run.tx.Adversarial {
		n.metrics.AddHandle(n.mh.advFailed, 1)
		return
	}
	n.metrics.AddHandle(n.mh.txFailed, 1)
	n.metrics.AddHandle(n.txFailedReasonHandle(reason), 1)
}
