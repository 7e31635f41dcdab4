// Package serve is the routing service: a long-running daemon core that
// answers path queries for a live, churning PCN. It is the read side of the
// epoch-snapshot architecture — a pcn.Network (owned by exactly one writer
// goroutine: the dynamics driver, or whatever applies churn) publishes
// epochs through graph.SnapshotStore, and a fixed pool of query workers
// answers routing queries against pinned snapshots with zero locks on the
// compute path.
//
// Worker model (after skyd's renter worker pool): each worker owns its jobs
// queue and its private PathFinder scratch, so jobs dispatched to one
// worker serialize and scratch is never shared. Dispatch is round-robin;
// results come back on a per-job buffered channel, so an abandoned caller
// (context cancellation) never blocks a worker.
//
// Per-epoch route cache: workers share one pcn.RouteCache (sharded, safe
// for concurrent readers) per epoch, swapped atomically when a worker first
// sees a newer epoch. A worker pinned on an older epoch than the shared
// cache computes uncached rather than poisoning newer entries.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/routing"
)

// ErrShuttingDown is returned for queries that arrive after Shutdown began
// (or were still queued when the drain deadline expired).
var ErrShuttingDown = errors.New("serve: shutting down")

// ErrSaturated is returned when the target worker's job queue is full: the
// pool is overloaded and the caller should back off and retry (HTTP maps it
// to 503 + Retry-After). Shedding at admission keeps queue wait bounded
// instead of letting latency grow without limit under overload.
var ErrSaturated = errors.New("serve: worker pool saturated")

// ErrNoSnapshot is returned while the writer has not yet published an epoch
// — the server is up but not ready (503 + Retry-After, like saturation).
var ErrNoSnapshot = errors.New("serve: no snapshot published")

// Options configures a Server.
type Options struct {
	// Workers is the query-pool size; <= 0 means 2.
	Workers int
	// QueueDepth is each worker's job-queue capacity; <= 0 means 64.
	QueueDepth int
	// RequestTimeout bounds each HTTP request's total time in the handler
	// (parse + queue wait + compute); 0 means no per-request deadline. The
	// programmatic Route API is bounded by the caller's context either way.
	RequestTimeout time.Duration
	// StallDelay injects a sleep before each job's compute — a worker-stall
	// fault for graceful-degradation testing and benchmarks. 0 (production)
	// injects nothing.
	StallDelay time.Duration
}

// RouteRequest is one path query.
type RouteRequest struct {
	Src, Dst graph.NodeID
	// K is the number of paths (<= 0 means 1).
	K int
	// Type selects the path strategy; routing.KSP when zero-valued requests
	// arrive via NewRouteRequest/HTTP. Label-served when the source is a hub
	// and the type is KSP, exact otherwise — identical results either way.
	Type routing.PathType
}

// RoutePath is one path in a response, flattened for JSON.
type RoutePath struct {
	Nodes      []graph.NodeID `json:"nodes"`
	Edges      []graph.EdgeID `json:"edges"`
	Hops       int            `json:"hops"`
	Bottleneck float64        `json:"bottleneck"`
}

// RouteResponse carries the answer and the epoch it was computed against.
type RouteResponse struct {
	Epoch uint64      `json:"epoch"`
	Paths []RoutePath `json:"paths"`
}

// ServerStats is a point-in-time view of serving activity. The JSON shape
// is the /topology/stats wire contract: route-cache hit/miss counters and
// the snapshot store's publication stats ride along with the serving
// counters, so operators see cache efficiency and epoch churn in one fetch.
type ServerStats struct {
	Workers   int                 `json:"workers"`
	Served    uint64              `json:"served"`    // queries answered (including unroutable)
	Errors    uint64              `json:"errors"`    // queries failing validation or computation
	Shed      uint64              `json:"shed"`      // queries refused by shutdown
	Saturated uint64              `json:"saturated"` // queries refused by a full worker queue
	Timeouts  uint64              `json:"timeouts"`  // queries cut by a context deadline
	CacheHits uint64              `json:"cache_hits"`
	CacheMiss uint64              `json:"cache_misses"`
	Epoch     uint64              `json:"epoch"`
	Snapshots graph.SnapshotStats `json:"snapshots"`
}

type routeResult struct {
	resp *RouteResponse
	err  error
}

type job struct {
	req  RouteRequest
	resp chan routeResult // buffered(1): workers never block on abandoned callers
}

type worker struct {
	id   int
	jobs chan *job
	pf   *graph.PathFinder // created from the first pinned snapshot
}

// epochCache pairs a route cache with the epoch its entries were computed
// against.
type epochCache struct {
	epoch uint64
	cache *pcn.RouteCache
}

// Server is the daemon core. Create with NewServer, query with Route (or
// the HTTP handler), stop with Shutdown.
type Server struct {
	net   *pcn.Network
	store *graph.SnapshotStore

	workers  []*worker
	next     atomic.Uint64
	workerWG sync.WaitGroup
	quit     chan struct{}

	// stateMu orders Route admission against Shutdown: Route increments
	// inflight under the read lock while closed is false, Shutdown flips
	// closed under the write lock — so after Shutdown holds the write lock
	// once, no new inflight increment can slip past the closed check (the
	// WaitGroup add-vs-wait race is structurally excluded).
	stateMu  sync.RWMutex
	closed   bool
	inflight sync.WaitGroup
	stopOnce sync.Once

	cache atomic.Pointer[epochCache]

	opts      Options
	served    atomic.Uint64
	errs      atomic.Uint64
	shed      atomic.Uint64
	saturated atomic.Uint64
	timeouts  atomic.Uint64
}

// NewServer wraps a network in a serving pool. The network's snapshot store
// is attached (EnableSnapshots) if it wasn't already; after this call the
// caller's writer goroutine may keep mutating the network — workers only
// ever read pinned snapshots.
func NewServer(net *pcn.Network, opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	s := &Server{
		net:   net,
		store: net.EnableSnapshots(),
		quit:  make(chan struct{}),
		opts:  opts,
	}
	for i := 0; i < opts.Workers; i++ {
		w := &worker{id: i, jobs: make(chan *job, opts.QueueDepth)}
		s.workers = append(s.workers, w)
		s.workerWG.Add(1)
		go s.workerLoop(w)
	}
	return s
}

// Snapshots returns the epoch store workers read from.
func (s *Server) Snapshots() *graph.SnapshotStore { return s.store }

// Route answers one path query: validate, dispatch to a worker, wait. The
// context bounds the wait; the query may still complete on the worker after
// cancellation (its result is discarded).
func (s *Server) Route(ctx context.Context, req RouteRequest) (*RouteResponse, error) {
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		s.shed.Add(1)
		return nil, ErrShuttingDown
	}
	s.inflight.Add(1)
	s.stateMu.RUnlock()
	defer s.inflight.Done()

	j := &job{req: req, resp: make(chan routeResult, 1)}
	w := s.workers[s.next.Add(1)%uint64(len(s.workers))]
	// Non-blocking admission: a full worker queue sheds the query instead of
	// parking the caller behind unbounded queue wait — the caller gets an
	// immediate, retryable overload signal (503 + Retry-After over HTTP).
	select {
	case w.jobs <- j:
	case <-s.quit:
		s.shed.Add(1)
		return nil, ErrShuttingDown
	default:
		s.saturated.Add(1)
		return nil, ErrSaturated
	}
	select {
	case r := <-j.resp:
		if r.err != nil {
			return nil, r.err
		}
		return r.resp, nil
	case <-ctx.Done():
		s.timeouts.Add(1)
		return nil, ctx.Err()
	}
}

// Shutdown drains the pool: new queries are refused immediately, in-flight
// queries get until ctx's deadline to finish, then workers stop (any still
// queued jobs are answered with ErrShuttingDown). Returns ctx.Err() if the
// deadline cut the drain short, nil on a clean drain. Safe to call more
// than once; later calls return nil without waiting.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.stopOnce.Do(func() {
		s.stateMu.Lock()
		s.closed = true
		s.stateMu.Unlock()

		done := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
		close(s.quit)
		s.workerWG.Wait()
	})
	return err
}

// Stats returns a point-in-time activity snapshot.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Workers:   len(s.workers),
		Served:    s.served.Load(),
		Errors:    s.errs.Load(),
		Shed:      s.shed.Load(),
		Saturated: s.saturated.Load(),
		Timeouts:  s.timeouts.Load(),
		Epoch:     s.store.Epoch(),
		Snapshots: s.store.Stats(),
	}
	if ec := s.cache.Load(); ec != nil {
		st.CacheHits = ec.cache.Hits()
		st.CacheMiss = ec.cache.Misses()
	}
	return st
}

// workerLoop is one worker's life: serve jobs until quit, then drain the
// queue with shutdown errors so no caller is left waiting.
func (s *Server) workerLoop(w *worker) {
	defer s.workerWG.Done()
	for {
		select {
		case j := <-w.jobs:
			if s.opts.StallDelay > 0 {
				time.Sleep(s.opts.StallDelay)
			}
			j.resp <- s.handle(w, j.req)
		case <-s.quit:
			for {
				select {
				case j := <-w.jobs:
					j.resp <- routeResult{err: ErrShuttingDown}
				default:
					return
				}
			}
		}
	}
}

// handle computes one query against a freshly pinned snapshot.
func (s *Server) handle(w *worker, req RouteRequest) routeResult {
	snap := s.store.Acquire()
	if snap == nil {
		s.errs.Add(1)
		return routeResult{err: ErrNoSnapshot}
	}
	defer snap.Release()
	g := snap.Graph()
	if int(req.Src) < 0 || int(req.Src) >= g.NumNodes() || int(req.Dst) < 0 || int(req.Dst) >= g.NumNodes() {
		s.errs.Add(1)
		return routeResult{err: fmt.Errorf("serve: endpoint out of range: %d->%d with %d nodes", req.Src, req.Dst, g.NumNodes())}
	}
	k := req.K
	if k <= 0 {
		k = 1
	}
	if req.Type == 0 {
		req.Type = routing.KSP
	}
	if w.pf == nil {
		w.pf = graph.NewPathFinder(g)
	} else {
		w.pf.Rebind(g)
	}
	paths, err := s.pathsFor(w, snap, req.Src, req.Dst, k, req.Type)
	if err != nil {
		s.errs.Add(1)
		return routeResult{err: err}
	}
	resp := &RouteResponse{Epoch: snap.Epoch(), Paths: make([]RoutePath, len(paths))}
	for i, p := range paths {
		resp.Paths[i] = RoutePath{
			Nodes:      p.Nodes,
			Edges:      p.Edges,
			Hops:       p.Len(),
			Bottleneck: p.Bottleneck(g),
		}
	}
	s.served.Add(1)
	return routeResult{resp: resp}
}

// pathsFor computes (or cache-hits) the path set on the pinned snapshot.
func (s *Server) pathsFor(w *worker, snap *graph.Snapshot, src, dst graph.NodeID, k int, pt routing.PathType) ([]graph.Path, error) {
	compute := func() ([]graph.Path, error) {
		if pt == routing.KSP {
			// Hub-label acceleration when the snapshot carries labels: the
			// view serves hub-rooted queries from precomputed trees and
			// falls back to the worker's finder otherwise — byte-identical
			// results either way.
			if v, ok := snap.Labels(); ok {
				return v.KShortestPathsUnit(w.pf, src, dst, k), nil
			}
		}
		return routing.SelectPathsWith(w.pf, src, dst, k, pt)
	}
	cache := s.cacheFor(snap.Epoch())
	if cache == nil {
		return compute()
	}
	return cache.GetOrCompute(pcn.RouteKey{Src: src, Dst: dst, Type: pt, K: k}, compute)
}

// cacheFor returns the shared route cache for epoch, installing a fresh one
// when epoch is newer than the installed cache. Returns nil when the caller
// is pinned on an OLDER epoch than the installed cache: its results would be
// stale for everyone else, so it computes uncached.
func (s *Server) cacheFor(epoch uint64) *pcn.RouteCache {
	for {
		ec := s.cache.Load()
		if ec != nil && ec.epoch == epoch {
			return ec.cache
		}
		if ec != nil && ec.epoch > epoch {
			return nil
		}
		if s.cache.CompareAndSwap(ec, &epochCache{epoch: epoch, cache: pcn.NewRouteCache()}) {
			continue // reload: we (or a racer) installed a cache for a newer epoch
		}
	}
}
