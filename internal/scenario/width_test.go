package scenario

import (
	"fmt"
	"testing"

	"github.com/splicer-pcn/splicer/internal/pcn"
)

// TestFlashWidthIdentity pins that prefetching Flash's mice paths moves
// nothing: on a static cell, a churned cell (its payments come by Arrive, so
// the committer plans them alone through the armed funnel while mutators
// pause the pool and drop the memo mid-run) and a jammed cell with retries
// armed, the whole Result — the RouteCache hit/miss counters included, which
// is where a prefetch that reached the live cache would show — is the same
// at planning widths 1, 2 and 4. CI runs it under -race as well.
func TestFlashWidthIdentity(t *testing.T) {
	for _, cell := range []struct {
		name, param string
		x           float64
	}{
		{"fig7c", "tau_ms", 200},
		{"figchurn", "churn_rate", 4},
		{"retry-jamming", "attack_intensity", 30},
	} {
		e, ok := Lookup(cell.name)
		if !ok {
			t.Fatalf("registry is missing %q", cell.name)
		}
		s, err := e.Base.withParam(cell.param, cell.x)
		if err != nil {
			t.Fatal(err)
		}
		var serial string
		for _, width := range []int{1, 2, 4} {
			s.Routing.Parallelism = width
			st, err := s.beginBuild()
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := s.config(pcn.SchemeFlash, 0)
			if err != nil {
				t.Fatal(err)
			}
			// The same config on a throwaway copy of the topology says
			// whether this width arms the pool at all.
			probe, err := pcn.NewNetwork(st.g.Clone(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := width
			if width == 1 {
				want = 0
			}
			if got := probe.SpeculationStats().Workers; got != want {
				t.Fatalf("%s: width %d armed %d planning workers, want %d", cell.name, width, got, want)
			}
			res, err := s.runConfig(st, cfg)
			if err != nil {
				t.Fatalf("%s at width %d: %v", cell.name, width, err)
			}
			if res.Generated == 0 || res.RouteCacheMisses == 0 {
				t.Fatalf("%s: cell planned no mice: %+v", cell.name, res)
			}
			// %+v renders NaN ("no samples") equal to itself and maps in
			// key order, which DeepEqual on the struct would not.
			got := fmt.Sprintf("%+v", res)
			if width == 1 {
				serial = got
			} else if got != serial {
				t.Errorf("%s: width %d diverges from serial:\nserial %s\nwidth%d %s", cell.name, width, serial, width, got)
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
