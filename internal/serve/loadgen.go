// Load generator: sustained-throughput measurement against a Server, driven
// by the package's load tests (TestLoadGen*, including CI's serve
// degradation smoke). Clients call Server.Route directly — the HTTP layer is
// deliberately out of the measured path, so the number is the serving
// core's routes/sec, not a socket benchmark.

package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// LoadGenConfig shapes a load run.
type LoadGenConfig struct {
	// Clients is the number of concurrent requesters; <= 0 means the
	// server's worker count (one outstanding request per worker keeps every
	// worker busy without unbounded queueing).
	Clients int
	// Duration is how long to sustain load.
	Duration time.Duration
	// K is the paths-per-query (<= 0 means 1); queries are unit-KSP, the
	// serving hot path.
	K int
	// Seed seeds the endpoint draws (per-client streams are derived).
	Seed int64
	// HubFraction in [0,1] is the fraction of queries rooted at a hub
	// (label-served); the rest draw uniform sources. Payment traffic in a
	// hub-routed PCN is hub-mediated, so the default loadgen uses 0.5.
	HubFraction float64
}

// LoadStats is a load run's outcome.
type LoadStats struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// Saturated counts queries shed by a full worker queue (subset of
	// Errors): nonzero means the pool degraded gracefully — load was refused
	// with a retryable signal instead of queueing without bound.
	Saturated     uint64  `json:"saturated"`
	DurationSecs  float64 `json:"duration_secs"`
	RoutesPerSec  float64 `json:"routes_per_sec"`
	Clients       int     `json:"clients"`
	ServerWorkers int     `json:"server_workers"`
}

// drawEndpoints picks one query's endpoints: the source is a hub with
// probability hubFraction (when hubs exist) and uniform otherwise, the
// destination uniform over the node range excluding the source. Self-routes
// are trivially answerable (0-hop), so drawing dst without excluding src
// padded routes_per_sec with ~1/nodes no-op queries — on the tiny graphs of
// tests, far worse. Callers guarantee nodes >= 2, so the redraw terminates.
func drawEndpoints(rng *rand.Rand, nodes int, hubs []graph.NodeID, hubFraction float64) (src, dst graph.NodeID) {
	if len(hubs) > 0 && rng.Float64() < hubFraction {
		src = hubs[rng.Intn(len(hubs))]
	} else {
		src = graph.NodeID(rng.Intn(nodes))
	}
	dst = graph.NodeID(rng.Intn(nodes))
	for dst == src {
		dst = graph.NodeID(rng.Intn(nodes))
	}
	return src, dst
}

// LoadGen drives the server with random route queries from cfg.Clients
// goroutines for cfg.Duration (or until ctx cancels) and reports sustained
// throughput. Endpoints are drawn from the CURRENT snapshot's node range at
// client startup; the topology may churn underneath — out-of-range errors
// after a departure-heavy run count as Errors, not failures.
func LoadGen(ctx context.Context, s *Server, cfg LoadGenConfig) LoadStats {
	if cfg.Clients <= 0 {
		cfg.Clients = len(s.workers)
	}
	if cfg.K <= 0 {
		cfg.K = 1
	}

	var nodes int
	var hubs []graph.NodeID
	if snap := s.Snapshots().Acquire(); snap != nil {
		nodes = snap.Graph().NumNodes()
		if v, ok := snap.Labels(); ok {
			hubs = append(hubs, v.Hubs()...)
		}
		snap.Release()
	}
	if nodes < 2 {
		return LoadStats{Clients: cfg.Clients, ServerWorkers: len(s.workers)}
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var requests, errs, saturated atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for runCtx.Err() == nil {
				src, dst := drawEndpoints(rng, nodes, hubs, cfg.HubFraction)
				if _, err := s.Route(runCtx, RouteRequest{Src: src, Dst: dst, K: cfg.K}); err != nil {
					if runCtx.Err() != nil {
						break // cancellation, not a serving error
					}
					errs.Add(1)
					if errors.Is(err, ErrSaturated) {
						// Overload shed: back off briefly like an HTTP client
						// honoring Retry-After, instead of hot-spinning the
						// admission path.
						saturated.Add(1)
						select {
						case <-runCtx.Done():
						case <-time.After(200 * time.Microsecond):
						}
					}
					continue
				}
				requests.Add(1)
			}
		}(cfg.Seed + int64(c)*7919)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	st := LoadStats{
		Requests:      requests.Load(),
		Errors:        errs.Load(),
		Saturated:     saturated.Load(),
		DurationSecs:  elapsed,
		Clients:       cfg.Clients,
		ServerWorkers: len(s.workers),
	}
	if elapsed > 0 {
		st.RoutesPerSec = float64(st.Requests) / elapsed
	}
	return st
}
