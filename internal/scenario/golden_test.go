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

// goldenEntries names the registry entries pinned byte-for-byte. The
// fixtures were produced by the hand-wired pre-engine experiment runners
// (cmd/experiments), so this test is the proof that the declarative engine
// reproduces the historical generators exactly — and it keeps future perf
// PRs honest mechanically: any change to the sweep machinery, the rng split
// discipline, the simulator core or the CSV formatting that shifts a single
// byte fails here.
//
// fig7c pins the static figure path (scheme sweep, tau mutation), figchurn
// the dynamics path (timeline, driver, online re-placement), table2 the
// config-mutation path (path types, path counts, schedulers, both scales).
// The retry-* entries pin the retry-resilience panel: the unarmed columns
// double as a second witness that arming the spec's retry block does not
// move any retry-off cell (the Split(6)-last contract), and the armed
// columns pin the recovered TSR per scheme. ln-mainnet pins the hub-label
// tier on the mainnet-size snapshot, trimmed (see trimmedGolden). The
// remaining registry entries run through the same runners, so they are
// pinned transitively.
var goldenEntries = []string{
	"fig7c", "figchurn", "table2",
	"retry-jamming", "retry-flash-crowd", "retry-hub-outage",
	"ln-mainnet",
}

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
