package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/splicer-pcn/splicer/internal/pcn"
)

// querySeeds is the fuzz corpus of raw queries: the cases the request
// bounds exist for (non-finite, huge and non-positive values, huge and
// non-positive k, empty parameters) and a few valid queries.
var querySeeds = []string{
	"src=1&dst=2",
	"src=1&dst=1",
	"src=1&dst=2&k=7&type=edw&value=3.5",
	"src=1&dst=2&value=Inf",
	"src=1&dst=2&value=-Inf",
	"src=1&dst=2&value=NaN",
	"src=1&dst=2&value=1e300",
	"src=1&dst=2&value=1e400",
	"src=1&dst=2&value=-4",
	"src=1&dst=2&value=0",
	"src=1&dst=2&value=",
	"src=1&dst=2&k=1000000000&value=1",
	"src=1&dst=2&k=-1&value=1",
	"src=1&dst=2&k=&value=1",
	"src=-3&dst=&k=0",
	"src=1&dst=2&k=32&value=16384",
	"src=1&dst=2&value=0x1p-1074",
	"",
}

// FuzzParseRequests drives the /route and /plan query parsers with
// arbitrary raw queries. Every input must either fail (the handlers answer
// 400) or yield a request the worker pool can bound and answer in JSON:
// distinct endpoints, 1 ≤ k ≤ maxPaths and, for /plan, a finite positive
// value of at most maxPlanUnits units of the network's MaxTU. A query
// /route rejects, /plan rejects too.
func FuzzParseRequests(f *testing.F) {
	for _, seed := range querySeeds {
		f.Add(seed)
	}
	maxTU := pcn.NewConfig(pcn.SchemeSplicer).MaxTU
	limit := maxPlanUnits * maxTU
	f.Fuzz(func(t *testing.T, raw string) {
		r := httptest.NewRequest("GET", "/plan", nil)
		r.URL.RawQuery = raw
		route, routeErr := parseRouteRequest(r)
		if routeErr == nil && (route.K < 1 || route.K > maxPaths || route.Src == route.Dst) {
			t.Fatalf("%q: /route accepted %+v", raw, route)
		}
		plan, value, err := parsePlanRequest(r, maxTU)
		if err != nil {
			return
		}
		if routeErr != nil {
			t.Fatalf("%q: /plan accepted a query /route rejects (%v)", raw, routeErr)
		}
		if plan.K < 1 || plan.K > maxPaths {
			t.Fatalf("%q: /plan accepted k=%d", raw, plan.K)
		}
		if math.IsNaN(value) || math.IsInf(value, 0) || value <= 0 || value > limit {
			t.Fatalf("%q: /plan accepted value %v (limit %v)", raw, value, limit)
		}
	})
}

// FuzzHandler drives the whole HTTP API through Handler() with raw queries
// on each endpoint, on a 40-node network under a 50 ms request deadline.
// Every response must be a 2xx whose body is JSON, or a 4xx/5xx, and it
// must come back within handlerBound.
func FuzzHandler(f *testing.F) {
	const handlerBound = 2 * time.Second
	endpoints := []string{"/route", "/plan", "/topology/stats", "/healthz"}
	for _, seed := range querySeeds {
		for ep := range endpoints {
			f.Add(uint8(ep), seed)
		}
	}
	s := NewServer(testNetwork(f, 31, 40), Options{Workers: 2, RequestTimeout: 50 * time.Millisecond})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, ep uint8, raw string) {
		r := httptest.NewRequest("GET", "/", nil)
		r.URL.Path = endpoints[int(ep)%len(endpoints)]
		r.URL.RawQuery = raw
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, r)
		if took := time.Since(start); took > handlerBound {
			t.Fatalf("GET %s?%q took %v, bound %v", r.URL.Path, raw, took, handlerBound)
		}
		switch code := w.Code; {
		case code >= 200 && code < 300:
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("GET %s?%q: %d with a body that is not JSON: %q", r.URL.Path, raw, code, w.Body.String())
			}
		case code >= 400 && code < 600:
		default:
			t.Fatalf("GET %s?%q: status %d", r.URL.Path, raw, code)
		}
	})
}
