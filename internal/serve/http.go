// HTTP/JSON front-end for the serving pool: a small API surface
// (/route, /plan, /topology/stats, /healthz) over Server. Handlers are
// thin — parse, call Route, marshal — so everything interesting stays
// testable without a socket.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/routing"
)

// PlanResponse is /plan's answer: the routed paths plus the demand split
// into transaction units under the network's TU bounds.
type PlanResponse struct {
	RouteResponse
	Value float64   `json:"value"`
	Units []float64 `json:"units"`
}

// Handler returns the HTTP API over this server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /route", s.handleRoute)
	mux.HandleFunc("GET /plan", s.handlePlan)
	mux.HandleFunc("GET /topology/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// Per-request work is bounded when the request is parsed, before it reaches
// a worker: a query asks for at most maxPaths paths (Table II's largest k is
// 7), and /plan splits a value into at most maxPlanUnits transaction units.
const (
	maxPaths     = 32
	maxPlanUnits = 4096
)

// parseRouteRequest reads src/dst/k/type query parameters; src and dst must
// be distinct node ids.
func parseRouteRequest(r *http.Request) (RouteRequest, error) {
	q := r.URL.Query()
	src, err := strconv.Atoi(q.Get("src"))
	if err != nil {
		return RouteRequest{}, errors.New("serve: src must be a node id")
	}
	dst, err := strconv.Atoi(q.Get("dst"))
	if err != nil {
		return RouteRequest{}, errors.New("serve: dst must be a node id")
	}
	if src == dst {
		// A 0-hop path's bottleneck is +Inf, which JSON cannot carry.
		return RouteRequest{}, errors.New("serve: src and dst must differ")
	}
	req := RouteRequest{Src: graph.NodeID(src), Dst: graph.NodeID(dst), K: 1, Type: routing.KSP}
	if ks := q.Get("k"); ks != "" {
		if req.K, err = strconv.Atoi(ks); err != nil || req.K <= 0 || req.K > maxPaths {
			return RouteRequest{}, fmt.Errorf("serve: k must be an integer in [1, %d]", maxPaths)
		}
	}
	if ts := q.Get("type"); ts != "" {
		if req.Type, err = routing.PathTypeByName(ts); err != nil {
			return RouteRequest{}, err
		}
	}
	return req, nil
}

// parsePlanRequest reads a /plan query: the route parameters plus a value,
// which must be positive, finite and at most maxPlanUnits units of maxTU.
func parsePlanRequest(r *http.Request, maxTU float64) (RouteRequest, float64, error) {
	req, err := parseRouteRequest(r)
	if err != nil {
		return RouteRequest{}, 0, err
	}
	limit := maxPlanUnits * maxTU
	value, err := strconv.ParseFloat(r.URL.Query().Get("value"), 64)
	if err != nil || !(value > 0) || value > limit {
		return RouteRequest{}, 0, fmt.Errorf("serve: value must be a positive amount of at most %g", limit)
	}
	return req, value, nil
}

// requestContext applies the server's per-request deadline to an incoming
// request's context (identity when RequestTimeout is 0).
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	req, err := parseRouteRequest(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	resp, err := s.Route(ctx, req)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	cfg := s.net.Config()
	req, value, err := parsePlanRequest(r, cfg.MaxTU)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	units, err := routing.SplitDemand(value, cfg.MinTU, cfg.MaxTU)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	resp, err := s.Route(ctx, req)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, PlanResponse{RouteResponse: *resp, Value: value, Units: units})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	type reliabilityStats struct {
		Failures     int `json:"failures"`
		Successes    int `json:"successes"`
		ExcludedHits int `json:"excluded_hits"`
	}
	type statsResponse struct {
		ServerStats
		Nodes     int `json:"nodes"`
		LiveEdges int `json:"live_edges"`
		// Reliability is the wrapped network's failure-aware routing store
		// activity (all-zero when the retry layer is unarmed).
		Reliability reliabilityStats `json:"reliability"`
	}
	rel := s.net.ReliabilityStats()
	resp := statsResponse{
		ServerStats: s.Stats(),
		Reliability: reliabilityStats{
			Failures:     rel.Failures,
			Successes:    rel.Successes,
			ExcludedHits: rel.ExcludedHits,
		},
	}
	// Read topology shape from a pinned snapshot, never the live graph.
	if snap := s.store.Acquire(); snap != nil {
		resp.Nodes = snap.Graph().NumNodes()
		resp.LiveEdges = snap.Graph().NumLiveEdges()
		snap.Release()
	}
	writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.stateMu.RLock()
	closed := s.closed
	s.stateMu.RUnlock()
	if closed {
		httpError(w, http.StatusServiceUnavailable, ErrShuttingDown)
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

// statusFor maps transient serving conditions — shutdown, a saturated pool,
// no published snapshot yet, a request deadline — to 503 (retryable; the
// error response carries Retry-After) and everything else to 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrShuttingDown),
		errors.Is(err, ErrSaturated),
		errors.Is(err, ErrNoSnapshot),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeJSON answers 200 with v as JSON. It encodes into a buffer first, so
// a value encoding/json refuses (a NaN or ±Inf float) is answered with a
// 500 and a JSON error, not with a 200 and an empty body.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("serve: encoding the response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes()) // a failed write means the client is gone
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusServiceUnavailable {
		// Transient overload/startup/shutdown: tell clients when to retry.
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
