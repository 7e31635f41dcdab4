package serve

import (
	"math"
	"net/http/httptest"
	"testing"

	"github.com/splicer-pcn/splicer/internal/pcn"
)

// FuzzParseRequests drives the /route and /plan query parsers with
// arbitrary raw queries. Every input must either fail (the handlers answer
// 400) or yield a request the worker pool can bound: 1 ≤ k ≤ maxPaths and,
// for /plan, a finite positive value of at most maxPlanUnits units of the
// network's MaxTU. A query /route rejects, /plan rejects too.
func FuzzParseRequests(f *testing.F) {
	for _, seed := range []string{
		"src=1&dst=2",
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
	} {
		f.Add(seed)
	}
	maxTU := pcn.NewConfig(pcn.SchemeSplicer).MaxTU
	limit := maxPlanUnits * maxTU
	f.Fuzz(func(t *testing.T, raw string) {
		r := httptest.NewRequest("GET", "/plan", nil)
		r.URL.RawQuery = raw
		route, routeErr := parseRouteRequest(r)
		if routeErr == nil && (route.K < 1 || route.K > maxPaths) {
			t.Fatalf("%q: /route accepted k=%d", raw, route.K)
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
