package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update-golden regenerates the fixtures instead of comparing (use only
// when an intentional behavior change lands; the diff is the review
// artifact).
var updateGolden = flag.Bool("update-golden", false, "rewrite golden CSV fixtures from current output")

// goldenEntries names the registry entries pinned byte-for-byte. fig7c,
// figchurn and table2 were first produced by the hand-wired experiment
// runners that predate the declarative engine, so they prove the engine
// reproduces those generators exactly; every later fixture was generated
// from the engine at the commit before the change that added it. Any
// change to the sweep machinery, the rng split discipline, the simulator
// core or the CSV formatting that shifts a single byte fails here.
//
// fig7a–d pin the static figure path over all three swept parameters
// (channel_scale, value_scale, tau_ms) and both figure metrics; figchurn
// the dynamics path (timeline, driver, online re-placement); table1 the
// static property matrix; table2 the config-mutation path (path types, path
// counts, schedulers, both scales). The retry-* entries pin the
// retry-resilience panel: the unarmed columns double as a second witness
// that arming the spec's retry block does not move any retry-off cell (the
// Split(6)-last contract), and the armed columns pin the recovered TSR per
// scheme. ln-mainnet pins the hub-label tier on the mainnet-size snapshot,
// trimmed (see trimmedGolden). fig9a–f pin the placement panels: both
// solvers, the ω sweep and the delay/overhead model at both scales.
var goldenEntries = []string{
	"fig7a", "fig7b", "fig7c", "fig7d", "figchurn", "table1", "table2",
	"retry-jamming", "retry-flash-crowd", "retry-hub-outage",
	"ln-mainnet",
	"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f",
}

// placementPanels are the Fig. 9 entries, whose ω points solve on the sweep
// workers.
var placementPanels = []string{"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f"}

// trimmedGolden cuts entries too costly to run whole in the suite down to a
// pinnable size; their fixtures hold the trimmed entry's table. ln-mainnet
// keeps the scheme whose transit legs plan on the pool under hub-label
// routing, the one whose whole plans do, and one the pool never arms for
// there, over a thin workload.
var trimmedGolden = map[string]func(*Entry){
	"ln-mainnet": func(e *Entry) {
		e.Schemes = []string{"Splicer", "Spider", "ShortestPath"}
		e.Base.Workload.Rate = 40
		e.Base.Workload.Duration = 2
	},
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".csv")
}

// TestGoldenConformance pins every cell to one planning worker, so the
// reference the fixtures are compared with (and regenerated from) is the
// serial simulator on any host, whatever its core count.
func TestGoldenConformance(t *testing.T) {
	defer ForceParallelism(1)()
	runGoldenConformance(t, false)
}

// TestGoldenConformanceParallel re-runs the pinned entries with 4 planning
// workers forced into every cell — more than the sweep's budget would ever
// grant, and on a 1-CPU host too. The fixtures are the SAME files as the
// serial suite: this is the byte-identity proof at the panel level — event
// stream, metrics and CSV formatting all unmoved by intra-run parallelism,
// across the static, churn, table, attack and retry pipelines.
// -update-golden is refused here by construction (fixtures are regenerated
// serially only).
func TestGoldenConformanceParallel(t *testing.T) {
	if *updateGolden {
		t.Skip("golden fixtures regenerate from serial runs; skipping parallel twin under -update-golden")
	}
	defer ForceParallelism(4)()
	runGoldenConformance(t, true)
}

func runGoldenConformance(t *testing.T, parallel bool) {
	for _, name := range goldenEntries {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "table2" {
				t.Skip("table2 regenerates the full 3000-node study (~20s); run without -short")
			}
			reg, ok := Lookup(name)
			if !ok {
				t.Fatalf("registry entry %q missing", name)
			}
			entry := *reg
			if trim := trimmedGolden[name]; trim != nil {
				trim(&entry)
			}
			table, err := entry.Run(RunOptions{Workers: -1})
			if err != nil {
				t.Fatal(err)
			}
			got := []byte(table.CSV())
			path := goldenPath(name)
			if *updateGolden && !parallel {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				suffix := ".got.csv"
				if parallel {
					suffix = ".got-parallel.csv"
				}
				diffPath := filepath.Join(t.TempDir(), name+suffix)
				if env := os.Getenv("GOLDEN_DIFF_DIR"); env != "" {
					if err := os.MkdirAll(env, 0o755); err == nil {
						diffPath = filepath.Join(env, name+suffix)
					}
				}
				if err := os.WriteFile(diffPath, got, 0o644); err != nil {
					t.Logf("could not write diff artifact: %v", err)
				}
				t.Fatalf("%s diverged from the golden fixture %s\nregenerated CSV written to %s\n"+
					"(if the change is intentional, regenerate with -update-golden and review the diff)",
					name, path, diffPath)
			}
		})
	}
}

// TestPlacementPanelsWorkerInvariant pins that the width of the ω sweep never
// moves a byte of a placement panel.
func TestPlacementPanelsWorkerInvariant(t *testing.T) {
	for _, name := range placementPanels {
		entry, ok := Lookup(name)
		if !ok {
			t.Fatalf("registry entry %q missing", name)
		}
		var serial string
		for _, workers := range []int{1, 2, -1} {
			table, err := entry.Run(RunOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				serial = table.CSV()
			} else if got := table.CSV(); got != serial {
				t.Fatalf("%s at %d workers:\n%s\nserial:\n%s", name, workers, got, serial)
			}
		}
	}
}
