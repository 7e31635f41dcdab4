package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/scenario"
	"github.com/splicer-pcn/splicer/internal/serve"
)

// Serving load, sized for a two-core host: the daemon runs two query
// workers and the generator holds two keep-alive connections.
const (
	serveWorkers = 2
	clientConns  = 2
	cruiseRate   = 500.0 // req/s offered in the open-loop phase
	hubRooted    = 0.7   // share of queries whose source is a hub (label-served)
	zipfSkew     = 0.8   // destination popularity
	warmRequests = 1000
	churnPerSec  = 5.0
	latencyLimit = 25.0 // ms, on p99, for the rate ladder
	streamLen    = 1 << 17
	keepEvery    = 16 // closed-loop responses kept for checking: one in keepEvery
)

var ladderRates = []float64{250, 500, 1000, 1500, 2000}

// serveEnv is a running splicerd core behind a loopback HTTP listener.
type serveEnv struct {
	net       *pcn.Network
	srv       *serve.Server
	httpSrv   *http.Server
	serveDone chan error
	base      string
	hubs      []graph.NodeID
	nodes     []graph.NodeID // endpoints: everything reachable from the first hub
	origEdges int
	clients   []*http.Client
}

// newServeEnv loads the mainnet-size snapshot, places hubs, starts the
// serving pool (first epoch: graph clone and label build) and listens.
func newServeEnv() (*serveEnv, error) {
	spec := scenario.MainnetSpec()
	g, _, err := spec.Build()
	if err != nil {
		return nil, err
	}
	cfg, err := handConfig(spec, pcn.SchemeSplicer)
	if err != nil {
		return nil, err
	}
	network, err := pcn.NewNetwork(g, cfg)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{net: network, hubs: network.Hubs(), origEdges: network.Graph().NumEdges()}
	for v, d := range network.Graph().BFSHops(e.hubs[0]) {
		if d >= 0 {
			e.nodes = append(e.nodes, graph.NodeID(v))
		}
	}
	e.srv = serve.NewServer(network, serve.Options{Workers: serveWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.httpSrv = &http.Server{Handler: e.srv.Handler()}
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.httpSrv.Serve(ln) }()
	for c := 0; c < clientConns; c++ {
		e.clients = append(e.clients, &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		})
	}
	return e, nil
}

// close stops the listener and the pool and reports leaked snapshot pins.
func (e *serveEnv) close() (pinsLeaked int64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = e.httpSrv.Shutdown(ctx)
	<-e.serveDone
	if serr := e.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	return e.srv.Snapshots().ActivePins(), err
}

// do sends one request over connection conn.
func (e *serveEnv) do(conn int, r request) (int, []byte, error) {
	resp, err := e.clients[conn].Get(e.base + r.url())
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// stream draws n requests from src: hubRooted of them start at a hub, the
// rest at a uniform node; destinations follow a Zipf law over a seeded
// ranking of the nodes; k = 1.
func (e *serveEnv) stream(src *rng.Source, n int) []request {
	zipf := rng.NewZipf(src.Split(1), len(e.nodes), zipfSkew)
	rank := src.Split(2).Perm(len(e.nodes))
	pick := src.Split(3)
	reqs := make([]request, n)
	for i := range reqs {
		var s graph.NodeID
		if pick.Float64() < hubRooted {
			s = e.hubs[pick.IntN(len(e.hubs))]
		} else {
			s = e.nodes[pick.IntN(len(e.nodes))]
		}
		d := e.nodes[rank[zipf.Next()]]
		for d == s {
			d = e.nodes[rank[zipf.Next()]]
		}
		reqs[i] = request{Src: int(s), Dst: int(d)}
	}
	return reqs
}

// churnWriter is the single writer of the live network: a seeded schedule of
// channel opens, closes and top-ups at churnPerSec. It closes only channels
// it opened itself, so the snapshot's own connectivity never shrinks and no
// request becomes unroutable.
type churnWriter struct {
	env    *serveEnv
	src    *rng.Source
	opened []graph.EdgeID
	callMs []float64
	errs   []error
	stop   chan struct{}
	done   sync.WaitGroup
}

func (e *serveEnv) startWriter(src *rng.Source) *churnWriter {
	w := &churnWriter{env: e, src: src, stop: make(chan struct{})}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(time.Duration(float64(time.Second) / churnPerSec))
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.step()
			}
		}
	}()
	return w
}

func (w *churnWriter) step() {
	e := w.env
	kind := w.src.IntN(3)
	if kind == 1 && len(w.opened) == 0 {
		kind = 0
	}
	var err error
	t0 := time.Now()
	switch kind {
	case 0:
		u := e.nodes[w.src.IntN(len(e.nodes))]
		v := e.nodes[w.src.IntN(len(e.nodes))]
		for v == u {
			v = e.nodes[w.src.IntN(len(e.nodes))]
		}
		var id graph.EdgeID
		if id, err = e.net.OpenChannel(u, v, 50, 50); err == nil {
			w.opened = append(w.opened, id)
		}
	case 1:
		id := w.opened[0]
		w.opened = w.opened[1:]
		err = e.net.CloseChannel(id)
	case 2:
		err = e.net.TopUpChannel(graph.EdgeID(w.src.IntN(e.origEdges)), 25, 25)
	}
	w.callMs = append(w.callMs, ms(time.Since(t0)))
	if err != nil {
		w.errs = append(w.errs, err)
	}
}

// halt stops the writer and waits for it.
func (w *churnWriter) halt() {
	if w == nil {
		return
	}
	close(w.stop)
	w.done.Wait()
}

// checkResponses counts the correctness misses among samples: a transport
// error or non-200 status on any, and on those whose body was kept, a route
// that does not run from src to dst. With exact set (a static epoch) the hop
// count of up to maxExact routes must match the exact finder's.
func (e *serveEnv) checkResponses(reqs []request, samples []sample, exact bool, chk *checker) {
	const maxExact = 1000
	var pf *graph.PathFinder
	if exact {
		pf = graph.NewPathFinder(e.net.Graph())
	}
	exactDone := 0
	for _, s := range samples {
		r := reqs[s.Idx]
		chk.op(func() error {
			if s.Err != nil {
				return fmt.Errorf("route %d->%d: %w", r.Src, r.Dst, s.Err)
			}
			if s.Status != http.StatusOK {
				return fmt.Errorf("route %d->%d: status %d", r.Src, r.Dst, s.Status)
			}
			if s.Body == nil {
				return nil
			}
			var resp serve.RouteResponse
			if err := json.Unmarshal(s.Body, &resp); err != nil {
				return fmt.Errorf("route %d->%d: %w", r.Src, r.Dst, err)
			}
			if len(resp.Paths) == 0 {
				return fmt.Errorf("route %d->%d: no path", r.Src, r.Dst)
			}
			p := resp.Paths[0]
			if len(p.Nodes) == 0 || int(p.Nodes[0]) != r.Src || int(p.Nodes[len(p.Nodes)-1]) != r.Dst {
				return fmt.Errorf("route %d->%d: path runs %v", r.Src, r.Dst, p.Nodes)
			}
			if pf != nil && exactDone < maxExact {
				exactDone++
				want, ok := pf.UnitShortestPath(graph.NodeID(r.Src), graph.NodeID(r.Dst))
				if !ok || want.Len() != p.Hops {
					return fmt.Errorf("route %d->%d: %d hops, exact finder %d", r.Src, r.Dst, p.Hops, want.Len())
				}
			}
			return nil
		}())
	}
}

// dropBodies keeps one response body in every so many, to bound the memory
// the generator adds to the process whose peak RSS is reported.
func dropBodies(do doFunc, every int) doFunc {
	var mu sync.Mutex
	n := 0
	return func(conn int, r request) (int, []byte, error) {
		status, body, err := do(conn, r)
		mu.Lock()
		n++
		keep := n%every == 0
		mu.Unlock()
		if !keep {
			body = nil
		}
		return status, body, err
	}
}

// runServe is the child process of a serve workload.
func runServe(name string, seed uint64, seconds float64, traced, setupOnly bool, ready func()) (*childResult, error) {
	env, err := newServeEnv()
	if err != nil {
		return nil, err
	}
	src := rng.New(seed)
	reqs := env.stream(src.Split(1), streamLen)
	var chk checker
	warm := env.stream(src.Split(2), warmRequests)
	_, warmed, _ := closedLoop(env.do, clientConns, warm, time.Minute)
	env.checkResponses(warm, warmed, false, &chk)
	ready()

	res := &childResult{Metrics: metricSet{}}
	var runErr error
	if !setupOnly {
		churn := name == wChurn
		if traced {
			runErr = serveTraced(env, name, reqs, src.Split(3), churn, seconds, &chk, res)
		} else {
			serveTimed(env, reqs, src.Split(3), churn, seconds, &chk, res)
		}
	}
	pins, err := env.close()
	if err != nil {
		chk.fail(fmt.Errorf("shutdown: %w", err))
	}
	if pins != 0 {
		chk.fail(fmt.Errorf("%d snapshot pins leaked after Shutdown", pins))
	}
	res.Metrics.set("serve.pins_leaked", "count", float64(pins))
	res.finish(&chk)
	return res, runErr
}

// serveTimed is the untraced run: an open loop at the cruise rate for 60 % of
// the time, then a closed loop at saturation for the rest.
func serveTimed(env *serveEnv, reqs []request, churnSrc *rng.Source, churn bool, seconds float64, chk *checker, res *childResult) {
	// The host reference is sampled around the phases, never during one.
	ref, err := newHostRef()
	if err != nil {
		chk.fail(err)
		return
	}
	var w *churnWriter
	if churn {
		w = env.startWriter(churnSrc)
	}
	refTwice := func() { ref.sample(); ref.sample() }
	refTwice()
	openDur := time.Duration(seconds * 0.6 * float64(time.Second))
	open := openLoop(env.do, clientConns, reqs, cruiseRate, openDur)
	refTwice()
	rest := reqs[len(open):]
	doneAt, notable, elapsed := closedLoop(dropBodies(env.do, keepEvery), clientConns, rest, time.Duration(seconds*0.4*float64(time.Second)))
	refTwice()
	w.halt()
	answered := len(doneAt)

	env.checkResponses(reqs, open, !churn, chk)
	env.checkResponses(rest, notable, false, chk)
	chk.attempted += answered - len(notable) // answered 200, body not kept
	if w != nil {
		for _, err := range w.errs {
			chk.fail(fmt.Errorf("writer: %w", err))
		}
	}
	st := reduceOpenLoop(open)
	// Latency is taken per one-second window: the median over windows of the
	// window's p50, and the lower quartile over windows of its p95, the p95
	// of a quiet second. A window of 500 requests supports p98 at most (ten
	// samples beyond it), and over ten seeds the window p99 spreads by 30 %
	// in this sandbox (a stalled second in one run, none in the next); the
	// median of the window p95s spreads by 17-25 %, their lower quartile by
	// 10-21 %. The p95 still sits in the exact-finder mode, which starts
	// near p70.
	p50s, p95s, rates := windowPercentiles(open, 50), windowPercentiles(open, 95), windowRates(doneAt, elapsed)
	f := ref.factor()
	res.HostFactor = f
	res.Metrics.set(mOp, "ms", median(p50s)*f)
	res.Metrics.set(mOpTail, "ms", percentile(p95s, 25)*f)
	res.Metrics.set(mWork, "1/s", median(rates)/f)
	valid := st.lateP99Ms <= 1 && st.achievedRPS >= 0.98*cruiseRate
	res.Valid = &valid
	res.Detail = map[string]any{
		"raw_route_ms": summarize(st.latMs), "late_p99_ms": st.lateP99Ms,
		"achieved_rps": st.achievedRPS, "saturation_requests": answered,
		"raw_window_p50_ms": p50s, "raw_window_p95_ms": p95s, "raw_window_routes_per_s": rates,
		"pooled_p99_ms": percentile(st.latMs, 99), "host_ref_ms": summarize(ref.samples),
	}
}

// serveTraced measures the layers under a served route from outside.
func serveTraced(env *serveEnv, name string, reqs []request, churnSrc *rng.Source, churn bool, seconds float64, chk *checker, res *childResult) error {
	tr := newTracer()
	m := res.Metrics
	const probeN = 2000
	probe, rest := reqs[:probeN], reqs[probeN:]
	take := func(n int) []request { // the next n unseen requests of the stream
		if n > len(rest) {
			n = len(rest)
		}
		out := rest[:n]
		rest = rest[n:]
		return out
	}
	store := env.srv.Snapshots()

	// The ladder, bottom up, each rung over the same requests. The two
	// path-search rungs run on a pinned snapshot with a finder of their own.
	snap := store.Acquire()
	g := snap.Graph()
	pf := graph.NewPathFinder(g)
	view, hasLabels := snap.Labels()
	timeEach := func(span string, f func(r request)) []float64 {
		id := tr.begin(span, -1, -1)
		out := make([]float64, len(probe))
		for i, r := range probe {
			t0 := time.Now()
			f(r)
			out[i] = us(time.Since(t0))
		}
		tr.end(id)
		return out
	}
	finder := timeEach("graph.finder", func(r request) {
		pf.KShortestPathsUnit(graph.NodeID(r.Src), graph.NodeID(r.Dst), 1)
	})
	var label []float64
	if hasLabels {
		label = timeEach("graph.label", func(r request) {
			view.KShortestPathsUnit(pf, graph.NodeID(r.Src), graph.NodeID(r.Dst), 1)
		})
	}
	var builds []float64
	for i := 0; i < 3; i++ {
		id := tr.begin("graph.label_build", -1, -1)
		graph.NewHubLabels(g, nil, env.hubs).BuildAll()
		builds = append(builds, ms(tr.end(id)))
	}
	const pins = 200000
	t0 := time.Now()
	for i := 0; i < pins; i++ {
		store.Acquire().Release()
	}
	m.set("graph.acquire_release_ns", "ns", float64(time.Since(t0).Nanoseconds())/pins)

	// Publishing alone: a private store over a clone of the live graph, one
	// new channel before each publish (the first publish clones, the later
	// ones replay the journal).
	clone := g.Clone()
	private := graph.NewSnapshotStore(env.hubs)
	edgeSrc := rng.New(7)
	var publishes []float64
	for i := 0; i < 6; i++ {
		u, v := env.nodes[edgeSrc.IntN(len(env.nodes))], env.nodes[edgeSrc.IntN(len(env.nodes))]
		if u != v {
			if _, err := clone.AddEdge(u, v, 50, 50); err != nil {
				return err
			}
		}
		id := tr.begin("graph.publish", -1, -1)
		private.Publish(clone, false)
		publishes = append(publishes, ms(tr.end(id)))
	}
	snap.Release()

	// A capacity change plus a forced publish opens a fresh epoch, so the
	// first in-process pass meets an empty route cache and the second a full
	// one; the handler and socket rungs then run against the full cache.
	if err := env.net.TopUpChannel(0, 1, 1); err != nil {
		return err
	}
	env.net.PublishSnapshot()
	ctx := context.Background()
	route := func(r request) {
		_, err := env.srv.Route(ctx, serve.RouteRequest{Src: graph.NodeID(r.Src), Dst: graph.NodeID(r.Dst), K: 1})
		if err != nil {
			chk.fail(fmt.Errorf("Server.Route %d->%d: %w", r.Src, r.Dst, err))
		}
	}
	inproc := timeEach("serve.route_inproc", route)
	cached := timeEach("serve.route_cached", route)
	handler := env.srv.Handler()
	id := tr.begin("serve.handler", -1, -1)
	handled := make([]float64, len(probe))
	for i, r := range probe {
		rec, req := httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, r.url(), nil)
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		handled[i] = us(time.Since(t0))
		if rec.Code != http.StatusOK {
			chk.fail(fmt.Errorf("handler %s: status %d", r.url(), rec.Code))
		}
	}
	tr.end(id)
	socket := timeEach("serve.http", func(r request) {
		if status, _, err := env.do(0, r); err != nil || status != http.StatusOK {
			chk.fail(fmt.Errorf("GET %s: status %d, %v", r.url(), status, err))
		}
	})
	m.setPair("graph.finder_us", "us", finder)
	m.setPair("graph.label_us", "us", label)
	m.setPair("serve.route_inproc_us", "us", inproc)
	m.setPair("serve.route_cached_us", "us", cached)
	m.setPair("serve.handler_us", "us", handled)
	m.setPair("serve.http_us", "us", socket)
	if hasLabels {
		m.set("serve.queue_pin_us", "us", median(inproc)-median(label))
	}
	m.set("serve.json_us", "us", median(handled)-median(cached))
	m.set("serve.socket_us", "us", median(socket)-median(handled))
	m.setPair("graph.label_build_ms", "ms", builds)
	m.setPair("graph.publish_ms", "ms", publishes)

	// Load phases, with the writer running on serve_churn: the rate ladder,
	// then the cruise rate once without and once with spans recorded.
	var w *churnWriter
	if churn {
		w = env.startWriter(churnSrc)
	}
	rung := time.Duration(seconds * 0.085 * float64(time.Second))
	underLimit := 0.0
	for _, rate := range ladderRates {
		batch := take(int(rate*rung.Seconds()) + 1)
		samples := openLoop(env.do, clientConns, batch, rate, rung)
		env.checkResponses(batch, samples, false, chk)
		st := reduceOpenLoop(samples)
		p99 := percentile(st.latMs, 99)
		m.set(fmt.Sprintf("ladder.p99_ms.r%d", int(rate)), "ms", p99)
		if p99 <= latencyLimit && st.lastLagMs <= latencyLimit && st.achievedRPS >= 0.98*rate {
			underLimit = rate
		}
	}
	m.set("ladder.rate_under_limit", "1/s", underLimit)

	cruise := time.Duration(seconds * 0.18 * float64(time.Second))
	batch := take(int(cruiseRate*cruise.Seconds()) + 1)
	plain := openLoop(env.do, clientConns, batch, cruiseRate, cruise)
	env.checkResponses(batch, plain, false, chk)
	before := readMem()
	batch = take(int(cruiseRate*cruise.Seconds()) + 1)
	spanned := openLoop(env.do, clientConns, batch, cruiseRate, cruise)
	after := readMem()
	env.checkResponses(batch, spanned, !churn, chk)
	w.halt()
	for i, s := range spanned {
		root := tr.add("loadgen.request", s.Due, s.Done, -1, i)
		tr.add("loadgen.late", s.Due, s.Handed, root, i)
		tr.add("loadgen.queued", s.Handed, s.Sent, root, i)
		tr.add("serve.http", s.Sent, s.Done, root, i)
	}
	plainSt, spannedSt := reduceOpenLoop(plain), reduceOpenLoop(spanned)
	m.set("trace_overhead_pct", "%", (median(spannedSt.latMs)-median(plainSt.latMs))/median(plainSt.latMs)*100)
	m.set("loadgen.late_p99_ms", "ms", spannedSt.lateP99Ms)
	m.set("loadgen.achieved_rps", "1/s", spannedSt.achievedRPS)
	m.set("go.alloc_mb_per_op", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(len(spanned)))
	m.set("go.allocs_per_op", "count", float64(after.Mallocs-before.Mallocs)/float64(len(spanned)))

	if w != nil {
		m.setPair("pcn.mutate_publish_ms", "ms", w.callMs)
		for _, err := range w.errs {
			chk.fail(fmt.Errorf("writer: %w", err))
		}
	}
	stats := env.srv.Stats()
	if total := stats.CacheHits + stats.CacheMiss; total > 0 {
		m.set("serve.cache_hit_ratio", "ratio", float64(stats.CacheHits)/float64(total))
	}
	m.set("serve.saturated", "count", float64(stats.Saturated))
	m.set("serve.timeouts", "count", float64(stats.Timeouts))
	m.set("serve.errors", "count", float64(stats.Errors))
	m.set("graph.publishes", "count", float64(stats.Snapshots.Publishes))
	m.set("graph.full_builds", "count", float64(stats.Snapshots.FullBuilds))
	m.set("graph.incremental_builds", "count", float64(stats.Snapshots.IncrementalBuilds))
	m.set("graph.buffers", "count", float64(stats.Snapshots.Buffers))
	setGoMetrics(m)
	return tr.write(tracePath(name))
}
