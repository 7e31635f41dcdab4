package scenario

import (
	"fmt"
	"testing"

	"github.com/splicer-pcn/splicer/internal/pcn"
)

// registryCell returns the base spec of a registry entry moved to one point
// of its axis.
func registryCell(t *testing.T, name, param string, x float64) Spec {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("registry is missing %q", name)
	}
	s, err := e.Base.withParam(param, x)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkWidths runs s's cell for scheme at planning widths 1, 2 and 4 and
// checks what must hold whatever the scheduler did: the pool is staffed at
// widths 2 and 4 exactly when armed says so; it was fed every scheduled
// payment (the static trace — a dynamic run delivers its payments by Arrive
// and schedules none); every route-cache miss was either replayed from the
// memo or computed on the committer; funds are conserved (runNetwork checks
// that); and the whole Result — the RouteCache and label-tier counters
// included, which is where a prefetch that reached live state would show —
// is the same at every width. It returns the serial Result.
func checkWidths(t *testing.T, name string, s Spec, scheme pcn.Scheme, armed bool) pcn.Result {
	t.Helper()
	scheduled := 0
	if s.Dynamics == nil {
		_, trace, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		scheduled = len(trace)
	}
	var serial pcn.Result
	for _, width := range []int{1, 2, 4} {
		s.Routing.Parallelism = width
		st, err := s.beginBuild()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.config(scheme, 0)
		if err != nil {
			t.Fatal(err)
		}
		net, err := pcn.NewNetwork(st.g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.runNetwork(st, net)
		if err != nil {
			t.Fatalf("%s %v at width %d: %v", name, scheme, width, err)
		}
		sp := net.SpeculationStats()
		want := width
		if width == 1 || !armed {
			want = 0
		}
		if sp.Workers != want {
			t.Fatalf("%s %v: width %d armed %d planning workers, want %d", name, scheme, width, sp.Workers, want)
		}
		if want > 0 {
			if sp.Enqueued != uint64(scheduled) {
				t.Fatalf("%s %v: %d payments scheduled, pool was fed %d", name, scheme, scheduled, sp.Enqueued)
			}
			if sp.MemoHits+sp.SerialPlans != uint64(res.RouteCacheMisses) {
				t.Fatalf("%s %v: %d route-cache misses, but %d replayed + %d serial", name, scheme, res.RouteCacheMisses, sp.MemoHits, sp.SerialPlans)
			}
			t.Logf("%s %v at width %d: %d route-cache misses, %+v", name, scheme, width, res.RouteCacheMisses, sp)
		}
		if width == 1 {
			serial = res
			continue
		}
		// %+v renders NaN ("no samples") equal to itself and maps in key
		// order, which DeepEqual on the struct would not.
		if a, b := fmt.Sprintf("%+v", serial), fmt.Sprintf("%+v", res); a != b {
			t.Errorf("%s %v: width %d diverges from serial:\nserial %s\nwidth%d %s", name, scheme, width, a, width, b)
		}
	}
	return serial
}

// TestFlashWidthIdentity pins that prefetching Flash's mice paths moves
// nothing: on a static cell, a churned cell (its payments come by Arrive, so
// the committer plans them alone through the armed funnel while mutators
// pause the pool and drop the memo mid-run) and a jammed cell with retries
// armed, the whole Result is the same at planning widths 1, 2 and 4. CI runs
// it under -race as well.
func TestFlashWidthIdentity(t *testing.T) {
	for _, cell := range []struct {
		name, param string
		x           float64
	}{
		{"fig7c", "tau_ms", 200},
		{"figchurn", "churn_rate", 4},
		{"retry-jamming", "attack_intensity", 30},
	} {
		s := registryCell(t, cell.name, cell.param, cell.x)
		res := checkWidths(t, cell.name, s, pcn.SchemeFlash, true)
		if res.Generated == 0 || res.RouteCacheMisses == 0 {
			t.Fatalf("%s: cell planned no mice: %+v", cell.name, res)
		}
	}
}

// TestHubLabelsWidthIdentity pins the arming rule's combinations under
// hub-label routing. Splicer (its transit legs prefetched, its access legs
// label-served on the committer) and Spider (whole plans prefetched) run on
// the pool; A2L, whose legs are both label queries, must stay off it. Each
// runs a static cell; a churned cell, where Splicer also re-places its hubs
// online (the mutators quiesce the pool, the label tier is rebuilt and
// repaired on the committer); a jammed cell with retries armed; and a
// hub-outage cell. The attacked cells are static runs, so the workers
// prefetch while the attack's mutations and retries land. CI runs it under
// -race as well.
func TestHubLabelsWidthIdentity(t *testing.T) {
	static := registryCell(t, "fig7c", "tau_ms", 200)
	churn := registryCell(t, "figchurn", "churn_rate", 4)
	retry := registryCell(t, "retry-jamming", "attack_intensity", 20)
	retry.Dynamics = nil
	outage := registryCell(t, "hub-outage", "attack_intensity", 4)
	outage.Dynamics = nil
	for _, cell := range []struct {
		name string
		spec Spec
	}{
		{"static", static}, {"churn", churn}, {"retry", retry}, {"outage", outage},
	} {
		for _, tc := range []struct {
			scheme pcn.Scheme
			armed  bool
		}{
			{pcn.SchemeSplicer, true}, {pcn.SchemeSpider, true}, {pcn.SchemeA2L, false},
		} {
			s := cell.spec
			s.Routing.Override = "hub-labels"
			if tc.scheme == pcn.SchemeSplicer && s.Dynamics != nil {
				d := *s.Dynamics
				d.ReplaceInterval = OnlineReplaceInterval
				s.Dynamics = &d
			}
			res := checkWidths(t, cell.name, s, tc.scheme, tc.armed)
			// A2L's tumbler may depart under churn, leaving nothing to
			// plan; the pooled schemes must have planned, and Splicer's
			// access legs must have been served by the tier.
			if tc.armed && res.RouteCacheMisses == 0 || tc.scheme == pcn.SchemeSplicer && res.LabelServed == 0 {
				t.Fatalf("%s %v: cell exercised neither the pool nor the tier: %+v", cell.name, tc.scheme, res)
			}
		}
	}
}

// TestConfigPlanningWidth pins who decides a cell's planning width: the
// spec's routing.parallelism when set, else the share of the cores the sweep
// grants, with ForceParallelism over both.
func TestConfigPlanningWidth(t *testing.T) {
	width := func(specWidth, planners int) int {
		s := SmallSpec()
		s.Routing.Parallelism = specWidth
		cfg, err := s.config(pcn.SchemeSplicer, planners)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Parallelism
	}
	for _, tc := range []struct{ spec, planners, forced, want int }{
		{0, 0, 0, 0}, // a lone cell: pcn resolves 0 to GOMAXPROCS
		{0, 1, 0, 1}, // a sweep that fills the cores
		{0, 2, 0, 2},
		{1, 2, 0, 1}, // the spec pins serial
		{3, 1, 0, 3},
		{0, 2, 1, 1}, // the serial golden reference
		{1, 1, 4, 4}, // the parallel golden twin
	} {
		restore := ForceParallelism(tc.forced)
		if got := width(tc.spec, tc.planners); got != tc.want {
			t.Errorf("routing.parallelism %d, %d planners granted, %d forced: width %d, want %d", tc.spec, tc.planners, tc.forced, got, tc.want)
		}
		restore()
	}
}
