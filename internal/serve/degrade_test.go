package serve

// Graceful-degradation contract: a saturated or stalled pool sheds load
// with a retryable signal (ErrSaturated / 503 + Retry-After) instead of
// queueing without bound, per-request deadlines cut off stalled computes,
// and the reliability counters ride the stats endpoint. These are the
// serving-side halves of the failure-aware routing PR.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestSaturationSheds pins the admission path: with one worker, a one-slot
// queue and a long injected stall, the pool's capacity is exactly two
// in-flight queries — the third must be refused immediately with
// ErrSaturated, and the abandoned waits must land in the timeout counter.
func TestSaturationSheds(t *testing.T) {
	n := testNetwork(t, 21, 40)
	s := NewServer(n, Options{Workers: 1, QueueDepth: 1, StallDelay: time.Second})
	defer s.Shutdown(context.Background())

	var saturated bool
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := s.Route(ctx, RouteRequest{Src: 0, Dst: 20})
		cancel()
		if errors.Is(err, ErrSaturated) {
			saturated = true
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: err = %v, want deadline (stalled worker) or saturation", i, err)
		}
	}
	if !saturated {
		t.Fatal("three queries against a capacity-2 stalled pool never saturated")
	}
	st := s.Stats()
	if st.Saturated == 0 {
		t.Fatalf("saturation not counted: %+v", st)
	}
	if st.Timeouts == 0 {
		t.Fatalf("abandoned waits not counted as timeouts: %+v", st)
	}
	if got := statusFor(ErrSaturated); got != http.StatusServiceUnavailable {
		t.Fatalf("statusFor(ErrSaturated) = %d, want 503", got)
	}
	if got := statusFor(context.DeadlineExceeded); got != http.StatusServiceUnavailable {
		t.Fatalf("statusFor(DeadlineExceeded) = %d, want 503", got)
	}
}

// TestRequestTimeoutHTTP pins the HTTP half: a stalled pool under a short
// per-request deadline answers 503 with a Retry-After header, not a hang.
func TestRequestTimeoutHTTP(t *testing.T) {
	n := testNetwork(t, 22, 40)
	s := NewServer(n, Options{
		Workers: 1, StallDelay: 500 * time.Millisecond, RequestTimeout: 25 * time.Millisecond,
	})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/route?src=1&dst=20")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stalled /route = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response lacks Retry-After")
	}
	if st := s.Stats(); st.Timeouts == 0 {
		t.Fatalf("request deadline not counted: %+v", st)
	}
}

// TestStatsReliabilityKeys pins the /topology/stats wire contract additions:
// the saturation/timeout counters and the reliability sub-object are always
// present (zero-valued when the retry layer is unarmed).
func TestStatsReliabilityKeys(t *testing.T) {
	n := testNetwork(t, 23, 40)
	s := NewServer(n, Options{Workers: 1})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/topology/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"saturated", "timeouts", "reliability"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("/topology/stats missing key %q", key)
		}
	}
	var rel map[string]json.RawMessage
	if err := json.Unmarshal(raw["reliability"], &rel); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"failures", "successes", "excluded_hits"} {
		if _, ok := rel[key]; !ok {
			t.Fatalf("reliability sub-object missing key %q: %s", key, raw["reliability"])
		}
	}
}

// TestRouteUnderStall: eight clients against a stalled two-worker pool
// still make forward progress (bounded throughput, not a wedge), and every
// shed query is accounted: the clients' ErrSaturated count and the
// server's agree.
func TestRouteUnderStall(t *testing.T) {
	n := testNetwork(t, 24, 40)
	s := NewServer(n, Options{Workers: 2, QueueDepth: 2, StallDelay: 2 * time.Millisecond})
	defer s.Shutdown(context.Background())
	ok, shed := routeLoad(t, s, 40, 8, 10, 1)
	if ok == 0 {
		t.Fatal("stalled pool made no progress")
	}
	t.Logf("%d answered, %d shed", ok, shed)
	if got := s.Stats().Saturated; uint64(shed) != got {
		t.Fatalf("clients saw %d sheds, server counted %d", shed, got)
	}
}

// TestWriteJSONRefusesUnencodable: a response encoding/json cannot write
// (here a NaN) is a 500 with a JSON error body, never a 200 with an empty
// body.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"bottleneck": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", rec.Code, rec.Body.String())
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("body %q is not a JSON error (%v)", rec.Body.String(), err)
	}
}
