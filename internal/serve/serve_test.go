package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// testNetwork builds a placed Splicer network ready for serving.
func testNetwork(t testing.TB, seed uint64, nodes int) *pcn.Network {
	t.Helper()
	src := rng.New(seed)
	sizes := workload.NewChannelSizeDist(src.Split(1), 1)
	g, err := topology.WattsStrogatz(src.Split(2), nodes, 4, 0.25, sizes.CapacityFunc())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pcn.NewConfig(pcn.SchemeSplicer)
	cfg.NumHubCandidates = 8
	cfg.Parallelism = 2 // what 0 means on splicerd's usual host, on any host
	n, err := pcn.NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// planningGoroutines counts the live goroutines running a pcn planning
// worker.
func planningGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "pcn.(*specWorker).loop")
}

func TestRouteMatchesDirectComputation(t *testing.T) {
	n := testNetwork(t, 11, 60)
	s := NewServer(n, Options{Workers: 2})
	defer s.Shutdown(context.Background())

	snap := s.Snapshots().Acquire()
	pf := graph.NewPathFinder(snap.Graph())
	ctx := context.Background()
	for _, tc := range []struct {
		src, dst graph.NodeID
		k        int
		pt       routing.PathType
	}{
		{3, 41, 1, routing.KSP},
		{7, 22, 3, routing.KSP},
		{0, 55, 2, routing.EDS},
		{14, 30, 2, routing.EDW},
	} {
		resp, err := s.Route(ctx, RouteRequest{Src: tc.src, Dst: tc.dst, K: tc.k, Type: tc.pt})
		if err != nil {
			t.Fatalf("%d->%d: %v", tc.src, tc.dst, err)
		}
		if resp.Epoch != snap.Epoch() {
			t.Fatalf("%d->%d: served epoch %d, pinned %d", tc.src, tc.dst, resp.Epoch, snap.Epoch())
		}
		want, err := routing.SelectPathsWith(pf, tc.src, tc.dst, tc.k, tc.pt)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Paths) != len(want) {
			t.Fatalf("%d->%d: %d paths, want %d", tc.src, tc.dst, len(resp.Paths), len(want))
		}
		for i := range want {
			got := graph.Path{Nodes: resp.Paths[i].Nodes, Edges: resp.Paths[i].Edges}
			if !got.Equal(want[i]) {
				t.Fatalf("%d->%d path %d diverges from direct computation", tc.src, tc.dst, i)
			}
			if resp.Paths[i].Hops != want[i].Len() {
				t.Fatalf("%d->%d path %d hops %d, want %d", tc.src, tc.dst, i, resp.Paths[i].Hops, want[i].Len())
			}
		}
	}
	snap.Release()
	if st := s.Stats(); st.Served == 0 || st.Errors != 0 {
		t.Fatalf("stats after clean queries: %+v", st)
	}
}

func TestRouteValidation(t *testing.T) {
	n := testNetwork(t, 12, 40)
	s := NewServer(n, Options{Workers: 1})
	defer s.Shutdown(context.Background())
	if _, err := s.Route(context.Background(), RouteRequest{Src: -1, Dst: 5}); err == nil {
		t.Fatal("negative src accepted")
	}
	if _, err := s.Route(context.Background(), RouteRequest{Src: 0, Dst: 4000}); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	if st := s.Stats(); st.Errors != 2 {
		t.Fatalf("error counter = %d, want 2", st.Errors)
	}
}

// TestServeUnderChurn is the serving-layer -race test: concurrent clients
// query while the writer goroutine churns the network; every response must
// be internally consistent, and the pool must not leak pins.
func TestServeUnderChurn(t *testing.T) {
	n := testNetwork(t, 13, 80)
	s := NewServer(n, Options{Workers: 4})
	st := s.Snapshots()

	var stop atomic.Bool
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() { // the network's single writer
		defer writerWG.Done()
		rnd := rand.New(rand.NewSource(5))
		for i := 0; i < 120; i++ {
			u := graph.NodeID(rnd.Intn(n.Graph().NumNodes()))
			v := graph.NodeID(rnd.Intn(n.Graph().NumNodes()))
			if u != v {
				if eid, err := n.OpenChannel(u, v, 40, 40); err == nil && i%3 == 0 {
					n.CloseChannel(eid)
				}
			}
		}
		stop.Store(true)
	}()

	var clientWG sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		clientWG.Add(1)
		go func(seed int64) {
			defer clientWG.Done()
			rnd := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for !stop.Load() {
				src := graph.NodeID(rnd.Intn(80))
				dst := graph.NodeID(rnd.Intn(80))
				resp, err := s.Route(ctx, RouteRequest{Src: src, Dst: dst, K: 1 + rnd.Intn(3)})
				if err != nil {
					errs <- err
					return
				}
				for _, p := range resp.Paths {
					if len(p.Nodes) == 0 || p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
						errs <- errors.New("serve: path endpoints wrong")
						return
					}
					if len(p.Edges) != len(p.Nodes)-1 {
						errs <- errors.New("serve: ragged path")
						return
					}
				}
			}
		}(int64(300 + c))
	}
	clientWG.Wait()
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if pins := st.ActivePins(); pins != 0 {
		t.Fatalf("leaked %d pins", pins)
	}
}

// TestShutdownDrainsAndRefuses pins the graceful-lifecycle contract
// (SIGTERM-equivalent): in-flight queries finish, new ones are refused,
// and no pinned epoch leaks — even when the drain deadline cuts queued
// work short.
func TestShutdownDrainsAndRefuses(t *testing.T) {
	n := testNetwork(t, 14, 60)
	s := NewServer(n, Options{Workers: 2})
	st := s.Snapshots()
	ctx := context.Background()

	// Saturate the pool from several clients, then shut down mid-flight.
	var wg sync.WaitGroup
	var completed, refused atomic.Uint64
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				_, err := s.Route(ctx, RouteRequest{
					Src: graph.NodeID(rnd.Intn(60)),
					Dst: graph.NodeID(rnd.Intn(60)),
					K:   2,
				})
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, ErrShuttingDown):
					refused.Add(1)
				default:
					panic(err)
				}
			}
		}(int64(c))
	}
	time.Sleep(5 * time.Millisecond) // let some queries get in flight
	dl, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := s.Shutdown(dl); err != nil {
		t.Fatalf("drain hit deadline: %v", err)
	}
	wg.Wait()

	if completed.Load() == 0 {
		t.Fatal("no query completed before shutdown; test is vacuous")
	}
	if refused.Load() == 0 {
		t.Fatal("no query was refused after shutdown; test is vacuous")
	}
	if _, err := s.Route(ctx, RouteRequest{Src: 0, Dst: 1}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown Route = %v, want ErrShuttingDown", err)
	}
	if pins := st.ActivePins(); pins != 0 {
		t.Fatalf("shutdown leaked %d pinned epochs", pins)
	}
	// The network's config arms the planning pool, but only a simulation
	// run (Execute) staffs it: a daemon routes and publishes without ever
	// owning a planning goroutine.
	if sp := n.SpeculationStats(); sp.Workers != 2 || sp.Enqueued != 0 || sp.Planned != 0 {
		t.Fatalf("served network's planning pool: %+v, want 2 workers configured and nothing fed", sp)
	}
	if g := planningGoroutines(); g != 0 {
		t.Fatalf("%d planning goroutines alive in a serving process", g)
	}
	// Second shutdown is a no-op.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDeadlineNeverLeaksPins: cancellation arrives while queries
// are queued and in flight; whatever their fate (answered or refused), all
// pins must be released.
func TestShutdownDeadlineNeverLeaksPins(t *testing.T) {
	n := testNetwork(t, 15, 60)
	s := NewServer(n, Options{Workers: 1, QueueDepth: 256})
	st := s.Snapshots()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for i := 0; i < 100; i++ {
				s.Route(ctx, RouteRequest{
					Src: graph.NodeID(rnd.Intn(60)),
					Dst: graph.NodeID(rnd.Intn(60)),
					K:   3,
				})
			}
		}(int64(40 + c))
	}
	// Already-expired deadline: the drain is cut short immediately and
	// queued jobs get ErrShuttingDown from the worker teardown path.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(expired)
	wg.Wait()
	if pins := st.ActivePins(); pins != 0 {
		t.Fatalf("deadline-cut shutdown leaked %d pinned epochs", pins)
	}
}

// TestEpochCacheSwaps pins the per-epoch cache: entries are served within
// an epoch and never across one.
func TestEpochCacheSwaps(t *testing.T) {
	n := testNetwork(t, 16, 60)
	s := NewServer(n, Options{Workers: 1})
	defer s.Shutdown(context.Background())
	ctx := context.Background()
	req := RouteRequest{Src: 2, Dst: 31, K: 2}

	if _, err := s.Route(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Route(ctx, req); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("repeat query missed the epoch cache: %+v", st)
	}

	// Churn → new epoch → fresh cache (the old entries must not serve).
	if _, err := n.OpenChannel(2, 31, 10, 10); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Route(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch < 2 {
		t.Fatalf("post-churn epoch = %d, want >= 2", resp.Epoch)
	}
	// The new direct channel must now be the shortest path.
	if len(resp.Paths) == 0 || resp.Paths[0].Hops != 1 {
		t.Fatalf("post-churn route ignores the new channel: %+v", resp.Paths)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	n := testNetwork(t, 17, 60)
	s := NewServer(n, Options{Workers: 2})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp.StatusCode, buf[:n]
	}

	if code, body := get("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d %s", code, body)
	}
	code, body := get("/route?src=3&dst=27&k=2")
	if code != 200 {
		t.Fatalf("/route = %d %s", code, body)
	}
	var rr RouteResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Epoch == 0 || len(rr.Paths) == 0 {
		t.Fatalf("/route payload: %+v", rr)
	}
	if code, _ := get("/route?src=bad&dst=2"); code != 400 {
		t.Fatalf("/route with bad src = %d, want 400", code)
	}
	if code, _ := get("/route?src=1&dst=999999"); code != 400 {
		t.Fatalf("/route out of range = %d, want 400", code)
	}

	code, body = get("/plan?src=3&dst=27&value=500")
	if code != 200 {
		t.Fatalf("/plan = %d %s", code, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Units) == 0 || pr.Value != 500 {
		t.Fatalf("/plan payload: %+v", pr)
	}
	sum := 0.0
	for _, u := range pr.Units {
		sum += u
	}
	if sum < 499.999 || sum > 500.001 {
		t.Fatalf("/plan units sum to %g, want 500", sum)
	}

	code, body = get("/topology/stats")
	if code != 200 {
		t.Fatalf("/topology/stats = %d %s", code, body)
	}
	var stats struct {
		Nodes     int    `json:"nodes"`
		LiveEdges int    `json:"live_edges"`
		Epoch     uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 60 || stats.LiveEdges == 0 {
		t.Fatalf("/topology/stats payload: %s", body)
	}
	// The wire contract: cache and snapshot-store counters ride along under
	// stable snake_case keys (the splicerd dashboard scrapes these).
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"workers", "served", "errors", "cache_hits", "cache_misses", "epoch", "snapshots"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("/topology/stats missing key %q: %s", key, body)
		}
	}
	var snapStats map[string]json.RawMessage
	if err := json.Unmarshal(raw["snapshots"], &snapStats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"publishes", "incremental_builds", "full_builds", "resyncs", "buffers", "recycled", "active_pins", "epoch"} {
		if _, ok := snapStats[key]; !ok {
			t.Fatalf("/topology/stats snapshots missing key %q: %s", key, raw["snapshots"])
		}
	}

	// Shutdown flips /healthz to 503 and /route to 503.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/healthz"); code != 503 {
		t.Fatalf("post-shutdown /healthz = %d, want 503", code)
	}
	if code, _ := get("/route?src=1&dst=2"); code != 503 {
		t.Fatalf("post-shutdown /route = %d, want 503", code)
	}
}

// TestRequestWorkIsBounded sends the requests that would make one query
// unbounded work — a value that SplitDemand cannot finish splitting (Inf),
// one that yields no JSON (NaN), a finite one that asks for 10^299 units,
// and a Yen search for 10^9 paths — and expects each to be refused with a
// 400 and a JSON error before it reaches a worker. The caps themselves
// still answer.
func TestRequestWorkIsBounded(t *testing.T) {
	n := testNetwork(t, 17, 60)
	s := NewServer(n, Options{Workers: 2})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	for _, path := range []string{
		"/plan?src=3&dst=27&value=Inf",
		"/plan?src=3&dst=27&value=%2BInf",
		"/plan?src=3&dst=27&value=NaN",
		"/plan?src=3&dst=27&value=1e300",
		"/plan?src=3&dst=27&value=1e400",
		"/plan?src=3&dst=27&value=500&k=1000000000",
		"/route?src=3&dst=27&k=1000000000",
		fmt.Sprintf("/route?src=3&dst=27&k=%d", maxPaths+1),
	} {
		code, body := get(path)
		var e struct {
			Error string `json:"error"`
		}
		if code != 400 || json.Unmarshal(body, &e) != nil || e.Error == "" {
			t.Errorf("%s = %d %q, want 400 with a JSON error", path, code, body)
		}
	}
	if st := s.Stats(); st.Served != 0 {
		t.Fatalf("refused requests reached the pool: served %d", st.Served)
	}

	limit := maxPlanUnits * n.Config().MaxTU
	code, body := get(fmt.Sprintf("/plan?src=3&dst=27&k=%d&value=%g", maxPaths, limit))
	if code != 200 {
		t.Fatalf("/plan at both caps = %d %s", code, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Units) != maxPlanUnits || len(pr.Paths) == 0 {
		t.Fatalf("/plan at both caps: %d units, %d paths", len(pr.Units), len(pr.Paths))
	}
}

// routeLoad sends perClient route queries from each of clients goroutines
// straight to s.Route, with seeded uniform endpoints (dst != src) over
// nodes, and counts the answers and the ErrSaturated sheds. Any other error
// fails the test.
func routeLoad(t *testing.T, s *Server, nodes, clients, perClient, k int) (answered, shed int64) {
	var ok, sat atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				src := graph.NodeID(rng.Intn(nodes))
				dst := graph.NodeID(rng.Intn(nodes - 1))
				if dst >= src {
					dst++
				}
				_, err := s.Route(context.Background(), RouteRequest{Src: src, Dst: dst, K: k})
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrSaturated):
					sat.Add(1)
				default:
					t.Errorf("route %d->%d: %v", src, dst, err)
				}
			}
		}(rand.New(rand.NewSource(int64(c) + 1)))
	}
	wg.Wait()
	return ok.Load(), sat.Load()
}

// TestRouteConcurrentSmoke: two clients on two workers get every query
// answered on a static topology.
func TestRouteConcurrentSmoke(t *testing.T) {
	n := testNetwork(t, 18, 60)
	s := NewServer(n, Options{Workers: 2})
	defer s.Shutdown(context.Background())
	if ok, shed := routeLoad(t, s, 60, 2, 50, 2); ok != 100 || shed != 0 {
		t.Fatalf("%d of 100 queries answered, %d shed", ok, shed)
	}
}

// TestRouteTinyGraph: on the smallest network the simulator admits (3
// nodes) every query is a real path computation and none errs.
func TestRouteTinyGraph(t *testing.T) {
	g := graph.New(3)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}} {
		if _, err := g.AddEdge(e[0], e[1], 100, 100); err != nil {
			t.Fatal(err)
		}
	}
	n, err := pcn.NewNetwork(g, pcn.NewConfig(pcn.SchemeShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(n, Options{Workers: 1})
	defer s.Shutdown(context.Background())
	if ok, shed := routeLoad(t, s, 3, 1, 50, 1); ok != 50 || shed != 0 {
		t.Fatalf("%d of 50 queries answered, %d shed", ok, shed)
	}
}
