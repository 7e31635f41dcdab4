// Command splicerd is the routing daemon: it holds a live PCN, answers
// path queries over HTTP from a fixed pool of snapshot-pinned query
// workers (internal/serve), and — optionally — churns the topology from a
// single writer goroutine to exercise the epoch pipeline.
//
//	splicerd -addr :8080 -nodes 10000 -topology ba -workers 4
//	curl 'localhost:8080/route?src=3&dst=4821&k=3'
//	curl 'localhost:8080/plan?src=3&dst=4821&value=250'
//	curl 'localhost:8080/topology/stats'
//
// SIGINT/SIGTERM trigger a graceful stop: the HTTP listener closes, new
// queries are refused with 503, in-flight queries get -drain-timeout to
// finish, and the process exits with no pinned epoch left behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/serve"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// Connection limits: the API is GET-only with short query strings, so a
// client that trickles its headers or sends kilobytes of them is cut off.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	maxHeaderBytes    = 16 << 10
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		nodes        = flag.Int("nodes", 1000, "network size")
		topo         = flag.String("topology", "ws", "topology generator: ws (Watts-Strogatz) or ba (Barabasi-Albert)")
		seed         = flag.Uint64("seed", 1, "random seed")
		workers      = flag.Int("workers", 2, "query-pool size")
		queueDepth   = flag.Int("queue", 64, "per-worker job-queue depth")
		candidates   = flag.Int("candidates", 10, "hub candidate list size")
		churnRate    = flag.Float64("churn", 0, "topology churn events/sec applied by the writer goroutine (0 = static)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "how long in-flight queries get to finish on shutdown")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-request deadline for /route and /plan (0 = none); exceeded requests answer 503 + Retry-After")
	)
	flag.Parse()

	if err := run(*addr, *nodes, *topo, *seed, *workers, *queueDepth, *candidates, *churnRate, *drainTimeout, *reqTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "splicerd:", err)
		os.Exit(1)
	}
}

func run(addr string, nodes int, topo string, seed uint64, workers, queueDepth, candidates int, churnRate float64, drainTimeout, reqTimeout time.Duration) error {
	src := rng.New(seed)
	sizes := workload.NewChannelSizeDist(src.Split(1), 1)
	var g *graph.Graph
	var err error
	switch topo {
	case "ws":
		g, err = topology.WattsStrogatz(src.Split(2), nodes, 4, 0.25, sizes.CapacityFunc())
	case "ba":
		g, err = topology.BarabasiAlbert(src.Split(2), nodes, 3, sizes.CapacityFunc())
	default:
		return fmt.Errorf("unknown topology %q (want ws or ba)", topo)
	}
	if err != nil {
		return err
	}
	cfg := pcn.NewConfig(pcn.SchemeSplicer)
	cfg.NumHubCandidates = candidates
	net, err := pcn.NewNetwork(g, cfg)
	if err != nil {
		return err
	}

	s := serve.NewServer(net, serve.Options{
		Workers: workers, QueueDepth: queueDepth, RequestTimeout: reqTimeout,
	})
	fmt.Fprintf(os.Stderr, "splicerd: %d nodes, %d live channels, epoch %d, %d workers, listening on %s\n",
		g.NumNodes(), g.NumLiveEdges(), s.Snapshots().Epoch(), workers, addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The single writer goroutine: the network is mutated from here and
	// nowhere else. Query workers read pinned snapshots only.
	var writerWG sync.WaitGroup
	if churnRate > 0 {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			churnLoop(ctx, net, rand.New(rand.NewSource(int64(seed)+7)), churnRate)
		}()
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()

	select {
	case err := <-httpErr:
		stop()
		writerWG.Wait()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "splicerd: shutting down")
	writerWG.Wait()

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	httpSrv.Shutdown(drainCtx)
	if err := s.Shutdown(drainCtx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "splicerd: drain cut short: %v\n", err)
	}
	if pins := s.Snapshots().ActivePins(); pins != 0 {
		return fmt.Errorf("shutdown leaked %d pinned epochs", pins)
	}
	st := s.Stats()
	fmt.Fprintf(os.Stderr, "splicerd: served %d queries (%d errors, %d shed, %d saturated, %d timeouts), final epoch %d\n",
		st.Served, st.Errors, st.Shed, st.Saturated, st.Timeouts, st.Epoch)
	return nil
}

// churnLoop applies random topology events at the configured rate until the
// context cancels. Open/close/top-up draw uniformly; errors (e.g. closing an
// already-closed channel) are expected and skipped.
func churnLoop(ctx context.Context, net *pcn.Network, rnd *rand.Rand, rate float64) {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		g := net.Graph()
		switch rnd.Intn(3) {
		case 0:
			u := graph.NodeID(rnd.Intn(g.NumNodes()))
			v := graph.NodeID(rnd.Intn(g.NumNodes()))
			if u != v {
				net.OpenChannel(u, v, 50, 50)
			}
		case 1:
			if g.NumEdges() > 0 && g.NumLiveEdges() > 4*g.NumNodes()/3 {
				net.CloseChannel(graph.EdgeID(rnd.Intn(g.NumEdges())))
			}
		case 2:
			if g.NumEdges() > 0 {
				net.TopUpChannel(graph.EdgeID(rnd.Intn(g.NumEdges())), 25, 25)
			}
		}
	}
}
