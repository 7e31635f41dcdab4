package pcn

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// Speculative payment-level parallelism.
//
// The discrete-event engine stays single-threaded: event ordering, channel
// state, HTLC locking, rate control and metrics all remain exactly the
// serial simulator. What parallelizes is the part the profiles show
// dominating big cells — route planning. For most schemes SchemePolicy.Plan
// is a pure function of the routed topology (static edge capacities, hub
// assignments, config, and the payment endpoints): live channel balances
// never feed into path selection, and every topology mutation funnels
// through Network.InvalidateRoutes. For Flash the same holds of the mice
// path set, which is most of its planning time. That purity is what makes
// speculation sound, and a policy opts into it by implementing
// RoutePrefetcher.
//
// Shape: when a run is armed (planningWorkers > 0), every payment handed to
// ScheduleArrival is also queued for a pool of planning workers that lives
// exactly as long as Execute. (A payment delivered by Arrive is dispatched
// within a few events of its arrival, before a worker could get to it:
// dynamics- and attack-driven arrivals plan on the committer as ever.) Each
// worker owns a shadow Network — a shallow copy of the live one bound to a
// private graph.PathFinder — and runs the policy's PrefetchRoutes against
// it. Nothing is returned; the useful effect is a warmed session memo
// (specSession.entries) keyed by RouteKey, with each entry recording the
// nested planRoutes calls its computation performed (children), in order.
//
// The serial dispatch path then runs Plan as before, but planRoutes
// resolves cache misses from the memo by *replaying* the recorded lookup
// tree against the live RouteCache in the exact order the serial compute
// would have performed it — same Get/Put sequence, same hit/miss counter
// arithmetic, same stored values (the workers computed them over the same
// topology generation with the same deterministic finder). Payments whose
// speculation raced a topology mutation simply miss the memo and compute
// serially, which is the rollback-and-replay-in-timestamp-order fallback:
// the committed event stream, every metric, and every figure CSV are
// byte-identical to the serial run by construction (and pinned by the
// golden-conformance suite with the pool forced on and forced off).
//
// Mutation safety: every mutator of worker-visible state (dynamic.go's
// channel/node operations, RePlaceHubs, ReshapeMultiStar, CapitalizeHubs)
// brackets itself with pauseSpeculation/resumeSpeculation, which waits out
// in-flight plans; InvalidateRoutes drops the memo alongside the live
// cache. Workers only ever block on each other's leader entries (the key
// space is a DAG: composed routes depend on transit legs, never the
// reverse), so pausing cannot deadlock.

// RoutePrefetcher is implemented by a SchemePolicy whose Plan has a part
// that is a pure function of the routed topology, and so may run ahead of
// dispatch on a planning worker. PrefetchRoutes runs that part for tx
// against the worker's shadow Network n; its only product is the route
// computations it sends through n.planRoutes. A policy whose whole Plan is
// pure prefetches by running Plan and discarding the result. Flash
// prefetches only its mice path set: elephants read the τ-stale balance
// view, and the mice path pick consumes nextTUID, so both stay on the
// serial committer.
//
// Implementations promise that PrefetchRoutes (and everything reachable
// from it) never reads live channel balances, never mutates policy or
// network state, and that Plan reads the same keys through n.planRoutes,
// never through Routes() directly. Landmark does not qualify: its plans
// build and repair the policy-owned tail trees lazily.
type RoutePrefetcher interface {
	PrefetchRoutes(n *Network, tx workload.Tx)
}

// planningWorkers resolves how many planning workers a run gets: none
// unless the policy can prefetch and routing is exact, else
// Config.Parallelism with 0 read as the cores this process may use. One
// worker would only move the serial work to another goroutine, so it
// counts as none.
//
// Hub-label routing is excluded: the label tier's Served/Fallback/Builds
// counters flow into the Result (and panel CSVs), and its lazy per-hub tree
// builds mutate shared state per query — both would diverge under
// concurrent planning.
func planningWorkers(cfg Config, policy SchemePolicy) int {
	if _, ok := policy.(RoutePrefetcher); !ok || cfg.RoutingOverride != RoutingExact {
		return 0
	}
	w := cfg.Parallelism
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 2 {
		return 0
	}
	return w
}

// specEntry is one memoized route computation. Its creator (the leader: a
// worker, or the committer claiming a key no worker has reached) fills
// paths/err/children and closes done; concurrent workers needing the same
// key — and the serial committer, if dispatch catches up with an in-flight
// plan — wait on done. children lists the RouteKeys the leader's
// compute consulted via nested planRoutes, in call order, whether they were
// served from the live cache or from sibling entries: the commit replay
// reproduces the serial lookup sequence from it.
type specEntry struct {
	done     chan struct{}
	paths    []graph.Path
	err      error
	children []RouteKey
}

// SpeculationStats reports the speculative planning pool's activity. All
// zero for serial runs. The stats are observability-only: they are not part
// of Result, so result rows and CSVs stay column-identical to serial runs.
//
// Two identities hold whatever the scheduler did: Enqueued is the number of
// payments handed to ScheduleArrival, and MemoHits + SerialPlans is
// the run's RouteCache miss count through planRoutes — every miss is either
// replayed from the memo or computed on the committer. Their split, and
// Planned, say how far ahead of dispatch the workers got.
type SpeculationStats struct {
	Workers     int
	Enqueued    uint64 // payments handed to the pool
	Planned     uint64 // payments a worker prefetched (incl. aborted ones)
	MemoHits    uint64 // route-cache misses served by replaying the memo
	SerialPlans uint64 // route-cache misses computed serially (memo miss/stale)
	Pauses      uint64 // mutator quiesce barriers taken
}

// specSession is the per-run speculative planning pool.
type specSession struct {
	n        *Network // live network (serial committer's view)
	prefetch RoutePrefetcher
	workers  int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []workload.Tx
	head    int
	paused  int // pause depth (mutator re-entrancy: DepartNode→CloseChannel)
	active  int // workers currently inside a speculative plan
	started bool
	closing bool
	wg      sync.WaitGroup

	emu     sync.RWMutex
	entries map[RouteKey]*specEntry

	enqueued    atomic.Uint64
	planned     atomic.Uint64
	memoHits    atomic.Uint64
	serialPlans atomic.Uint64
	pauses      atomic.Uint64
}

func newSpecSession(n *Network, prefetch RoutePrefetcher, workers int) *specSession {
	sp := &specSession{
		n:        n,
		prefetch: prefetch,
		workers:  workers,
		entries:  map[RouteKey]*specEntry{},
	}
	sp.cond = sync.NewCond(&sp.mu)
	return sp
}

// enqueue hands a scheduled payment to the pool. Before the run starts
// nobody waits on the cond, so a scheduled trace costs no wake-up per
// payment (Signal returns at once) and the workers find it whole when start
// launches them; during the run it wakes a parked worker. Runs on the serial
// goroutine only, so the one other cond waiter, pause, is never waiting here.
func (sp *specSession) enqueue(tx workload.Tx) {
	sp.enqueued.Add(1)
	sp.mu.Lock()
	sp.queue = append(sp.queue, tx)
	sp.mu.Unlock()
	sp.cond.Signal()
}

// start launches the workers for one Execute; a Network that never
// executes a run (splicerd's) never owns a planning goroutine.
func (sp *specSession) start() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.started {
		return
	}
	sp.started, sp.closing = true, false
	// The one-time lazy CSR build must not race the workers' private
	// finders; force it from the serial goroutine before any start.
	sp.n.g.EnsureCSR()
	for i := 0; i < sp.workers; i++ {
		w := sp.newWorker()
		sp.wg.Add(1)
		go w.loop()
	}
}

// stop tears the pool down, waiting out in-flight plans so no goroutine
// touches the graph after Execute returns. Pending unplanned payments are
// dropped (their dispatch already happened or will compute serially). The
// session stays reusable: a later start relaunches the workers.
func (sp *specSession) stop() {
	sp.mu.Lock()
	if !sp.started {
		sp.mu.Unlock()
		return
	}
	sp.closing = true
	sp.mu.Unlock()
	sp.cond.Broadcast()
	sp.wg.Wait()
	sp.mu.Lock()
	sp.started = false
	sp.queue = nil
	sp.head = 0
	sp.mu.Unlock()
}

// pause quiesces the pool: it blocks until no worker is inside a plan and
// holds new plans off until the matching resume. Nested pause/resume pairs
// (mutators calling mutators) stack. Serial goroutine only.
func (sp *specSession) pause() {
	sp.pauses.Add(1)
	sp.mu.Lock()
	sp.paused++
	for sp.active > 0 {
		sp.cond.Wait()
	}
	sp.mu.Unlock()
}

func (sp *specSession) resume() {
	sp.mu.Lock()
	sp.paused--
	wake := sp.paused == 0 && sp.head < len(sp.queue)
	sp.mu.Unlock()
	if wake { // workers parked for want of work stay parked
		sp.cond.Broadcast()
	}
}

// invalidate drops the memo. Called from InvalidateRoutes on the serial
// goroutine; the surrounding mutator holds the pause, so no worker is
// mid-plan and no waiter is parked on an entry.
func (sp *specSession) invalidate() {
	sp.emu.Lock()
	sp.entries = map[RouteKey]*specEntry{}
	sp.emu.Unlock()
}

func (sp *specSession) lookup(key RouteKey) *specEntry {
	sp.emu.RLock()
	e := sp.entries[key]
	sp.emu.RUnlock()
	return e
}

// entry returns the memo entry for key, creating it if absent. leader is
// true for the creator, which must fill the entry and close done.
func (sp *specSession) entry(key RouteKey) (e *specEntry, leader bool) {
	sp.emu.Lock()
	e = sp.entries[key]
	if e == nil {
		e = &specEntry{done: make(chan struct{})}
		sp.entries[key] = e
		leader = true
	}
	sp.emu.Unlock()
	return e, leader
}

// stats snapshots the pool counters.
func (sp *specSession) stats() SpeculationStats {
	return SpeculationStats{
		Workers:     sp.workers,
		Enqueued:    sp.enqueued.Load(),
		Planned:     sp.planned.Load(),
		MemoHits:    sp.memoHits.Load(),
		SerialPlans: sp.serialPlans.Load(),
		Pauses:      sp.pauses.Load(),
	}
}

// specWorker is one planning worker: a shadow Network (shallow copy of the
// live one with a private PathFinder) plus the per-worker plan context.
type specWorker struct {
	sess   *specSession
	shadow *Network
	ctx    specWorkerCtx
}

// specWorkerCtx threads the memo through a worker's (possibly nested) plan
// computation; cur is the entry currently being computed, so nested
// planRoutes calls register as its children.
type specWorkerCtx struct {
	sess *specSession
	cur  *specEntry
}

// newWorker builds a worker with its shadow Network. The shadow shares the
// graph, channel slice, hub maps and config with the live network — all
// either immutable during speculation or mutated only under pause — but
// owns its PathFinder (Dijkstra scratch is the one per-query mutable state
// Plan needs), built by Network.PathFinder at the worker's first query so a
// pool that is never fed costs two parked goroutines and nothing else.
// Speculation is exact-routing-only, so the copied label-tier pointers are
// never consulted (HubLabels() returns nil).
func (sp *specSession) newWorker() *specWorker {
	w := &specWorker{sess: sp}
	w.ctx.sess = sp
	shadow := *sp.n
	shadow.pathFinder = nil
	shadow.spec = nil
	shadow.specCtx = &w.ctx
	w.shadow = &shadow
	return w
}

func (w *specWorker) loop() {
	sp := w.sess
	defer sp.wg.Done()
	for {
		sp.mu.Lock()
		for {
			if sp.closing {
				sp.mu.Unlock()
				return
			}
			if sp.paused == 0 && sp.head < len(sp.queue) {
				break
			}
			sp.cond.Wait()
		}
		tx := sp.queue[sp.head]
		sp.head++
		sp.active++
		sp.mu.Unlock()

		w.plan(tx)

		sp.mu.Lock()
		sp.active--
		wake := sp.active == 0 && sp.paused > 0
		sp.mu.Unlock()
		if wake {
			sp.cond.Broadcast() // release a waiting pause()
		}
		// The workers and the committer are one goroutine more than the
		// cores the pool was sized for, and a busy worker keeps its P for a
		// 10 ms slice: without this yield a committer made runnable by a
		// finished entry sits out that slice behind plans it may never need
		// (A2L drops most payments for compute backlog before planning).
		runtime.Gosched()
	}
}

// plan runs the policy's prefetch for tx against the shadow. Panics are
// captured into the in-flight entry (planSpeculative's recover) or swallowed
// here; the serial committer recomputes and surfaces them debuggably.
func (w *specWorker) plan(tx workload.Tx) {
	w.sess.planned.Add(1)
	// SetHubs reassigns the hub slice (online re-placement); re-sync per
	// plan. Safe: hub mutations happen only under pause.
	w.shadow.hubs = w.sess.n.hubs
	defer func() { _ = recover() }() // see planSpeculative
	w.sess.prefetch.PrefetchRoutes(w.shadow, tx)
}

// planSpeculative is planRoutes on a shadow Network: resolve from the live
// cache (counter-free Peek) or the memo, becoming the leader and computing
// when the key is cold. Every key consulted is recorded as a child of the
// enclosing computation.
func (ctx *specWorkerCtx) planSpeculative(key RouteKey, compute func() ([]graph.Path, error)) ([]graph.Path, error) {
	sp := ctx.sess
	if paths, ok := sp.n.routes.Peek(key); ok {
		ctx.record(key)
		return paths, nil
	}
	e, leader := sp.entry(key)
	if !leader {
		<-e.done
		ctx.record(key)
		return e.paths, e.err
	}
	parent := ctx.cur
	ctx.cur = e
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("pcn: speculative plan panicked: %v", r)
			}
		}()
		e.paths, e.err = compute()
	}()
	ctx.cur = parent
	close(e.done)
	ctx.record(key)
	if e.err != nil {
		// Propagate (panics included, as errors) so outer computes abort;
		// the entry is terminally erred for any waiter, and the serial
		// committer will recompute — resurfacing a panic debuggably on the
		// main goroutine.
		return nil, e.err
	}
	return e.paths, nil
}

func (ctx *specWorkerCtx) record(key RouteKey) {
	if ctx.cur != nil {
		ctx.cur.children = append(ctx.cur.children, key)
	}
}

// errUncommitted marks a memo entry the committer claimed and then failed
// to fill (its compute returned an error or panicked).
var errUncommitted = errors.New("pcn: committer's route computation did not finish")

// planCommit is planRoutes on the armed live network (serial goroutine).
// It reproduces GetOrCompute's observable behavior exactly: Get bumps one
// hit on a hit and one miss on a miss — the same arithmetic GetOrCompute
// performs — and on a miss either replays the memo (identical values,
// identical nested Get/Put order) or falls back to the serial compute. A
// key no worker has reached yet is claimed in the memo first, so a worker
// arriving mid-compute waits for this result instead of repeating the work.
func (sp *specSession) planCommit(key RouteKey, compute func() ([]graph.Path, error)) ([]graph.Path, error) {
	if paths, ok := sp.n.routes.Get(key); ok {
		return paths, nil
	}
	e, claimed := sp.entry(key)
	if !claimed {
		<-e.done // bounded: one route computation
		if e.err == nil && sp.replayable(e) {
			sp.replay(e)
			sp.n.routes.Put(key, e.paths)
			sp.memoHits.Add(1)
			return e.paths, nil
		}
	} else {
		e.err = errUncommitted
		defer close(e.done) // on every path out, panics included
	}
	sp.serialPlans.Add(1)
	paths, err := compute()
	if err != nil {
		return nil, err
	}
	sp.n.routes.Put(key, paths)
	if claimed {
		e.paths, e.err = paths, nil
	}
	return paths, nil
}

// replayable reports whether e's full child tree can be reproduced against
// the live cache without side effects (Peek only): every child either
// already committed or has an error-free memo entry. In the current
// lifecycle this cannot fail for a surviving entry — children are either
// live-cache hits that persist until an invalidation (which also drops e) or
// memo entries dropped only by that same invalidation — but verifying first
// keeps the counter arithmetic exact even if a future change breaks that.
func (sp *specSession) replayable(e *specEntry) bool {
	for _, ck := range e.children {
		if _, ok := sp.n.routes.Peek(ck); ok {
			continue
		}
		ce := sp.lookup(ck)
		if ce == nil {
			return false
		}
		<-ce.done
		if ce.err != nil || !sp.replayable(ce) {
			return false
		}
	}
	return true
}

// replay performs the recorded lookup tree's live-cache effects in call
// order: a Get per child (hit if some earlier commit stored it, else a
// miss), recursing into and then Put-ing entries not yet committed —
// exactly the sequence the serial nested GetOrCompute calls would have
// produced.
func (sp *specSession) replay(e *specEntry) {
	for _, ck := range e.children {
		if _, ok := sp.n.routes.Get(ck); ok {
			continue
		}
		ce := sp.lookup(ck) // non-nil: replayable() verified
		sp.replay(ce)
		sp.n.routes.Put(ck, ce.paths)
		sp.memoHits.Add(1)
	}
}

// planRoutes is the route-computation funnel every speculation-safe policy
// uses instead of calling Routes().GetOrCompute directly. Three modes:
// worker shadow (memoize speculatively), armed live network (commit via
// memo replay), plain serial (exact GetOrCompute passthrough — one nil
// check, no allocation).
func (n *Network) planRoutes(key RouteKey, compute func() ([]graph.Path, error)) ([]graph.Path, error) {
	if n.specCtx != nil {
		return n.specCtx.planSpeculative(key, compute)
	}
	if n.spec != nil {
		return n.spec.planCommit(key, compute)
	}
	return n.routes.GetOrCompute(key, compute)
}

// pauseSpeculation quiesces the speculative planning pool before a mutation
// of worker-visible state; resumeSpeculation releases it. No-ops (one nil
// check) on serial runs. Pairs nest.
func (n *Network) pauseSpeculation() {
	if n.spec != nil {
		n.spec.pause()
	}
}

func (n *Network) resumeSpeculation() {
	if n.spec != nil {
		n.spec.resume()
	}
}

// SpeculationStats returns the speculative planning pool's counters (zero
// Stats on serial runs).
func (n *Network) SpeculationStats() SpeculationStats {
	if n.spec == nil {
		return SpeculationStats{}
	}
	return n.spec.stats()
}
