// Command benchmark is the repo's benchmark: five deterministic workloads
// over the simulator's figure cells and the splicerd serving core, timed end
// to end (untraced) and layer by layer (a separate traced run). README.md in
// this directory has the metric and workload tables.
//
//	go run ./benchmark                                   every workload, untraced, as a table
//	go run ./benchmark -trace 1                          every workload, per-layer
//	go run ./benchmark -workload fig8d_large -seed 3     one workload; last line is the result as JSON
//	go run ./benchmark -runs 10 -out benchmark/out/a.json
//	go run ./benchmark -compare benchmark/out/a.json benchmark/out/b.json
//	go run ./benchmark -update-expected
//
// Run it from the repository root: BENCHMARK.json, the checked-in digests
// and the golden fixtures are read relative to the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

const benchmarkJSON = "BENCHMARK.json"

// setupRepeats is how many times a run sets its workload up, each in a fresh
// process; setup_s is the median.
const setupRepeats = 3

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print its result as the last line (default: all, as a table)")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "seconds to measure for (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		runs     = flag.Int("runs", 1, "with no -workload: runs per workload, on seeds seed, seed+1, ...")
		out      = flag.String("out", "", "with no -workload: write the set of runs to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two sets written with -out: -compare A.json B.json")
		update   = flag.Bool("update-expected", false, "rewrite the checked-in digests under benchmark/expected")
		child    = flag.String("child", "", "internal: run as a workload child process (run or setup)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *runs, *out, *compare, *update, *child); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traced bool, runs int, out string, compare, update bool, child string) error {
	if seed == 0 {
		return fmt.Errorf("-seed must be at least 1")
	}
	if child != "" {
		return childMain(child, workload, seed, seconds, traced)
	}
	bf, err := loadBenchmarkFile(benchmarkJSON)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if seconds <= 0 {
		seconds = float64(bf.RunSeconds)
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two set files")
		}
		return compareSets(bf, flag.Arg(0), flag.Arg(1))
	case update:
		return updateExpected()
	case workload != "":
		rec, err := runWorkload(bf, workload, seed, seconds, traced)
		if err != nil {
			return err
		}
		fmt.Printf("host %v\n", hostInfo())
		rec.print(bf, traced)
		line, err := json.Marshal(map[string]any{
			"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
		})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !rec.Correct {
			return fmt.Errorf("%s: %d of %d ops failed their checks", workload, rec.Failed, rec.Attempted)
		}
		return nil
	}

	set := runSet{Claim: nil, Host: hostInfo(), Seconds: seconds, Traced: traced}
	fmt.Printf("host %v\n", set.Host)
	failed := false
	for i := 0; i < runs; i++ {
		for _, name := range workloadNames {
			rec, err := runWorkload(bf, name, seed+uint64(i), seconds, traced)
			if err != nil {
				return err
			}
			rec.print(bf, traced)
			set.Runs = append(set.Runs, *rec)
			failed = failed || !rec.Correct
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one run failed its correctness checks")
	}
	return nil
}

// runRecord is one run of one workload, as stored in a set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	childResult
	SetupSamples []float64 `json:"setup_samples_s,omitempty"`
	// measured names the metrics the child produced; the rest of a traced
	// run's per-layer list reads 0 and is left out of the printed table.
	measured map[string]bool
}

// runSet is what -out writes and -compare reads. The benchmark measures; it
// claims nothing, so Claim stays null.
type runSet struct {
	Claim   any               `json:"claim"`
	Host    map[string]string `json:"host"`
	Seconds float64           `json:"seconds"`
	Traced  bool              `json:"traced"`
	Runs    []runRecord       `json:"runs"`
}

// runWorkload runs one workload: set-up alone in setupRepeats-1 fresh
// processes, then the measuring child, whose own set-up is the last sample.
// A traced run reports no set-up time and skips the extra set-ups.
func runWorkload(bf *benchmarkFile, name string, seed uint64, seconds float64, traced bool) (*runRecord, error) {
	rec := &runRecord{Workload: name, Seed: seed}
	if !traced {
		for i := 1; i < setupRepeats; i++ {
			s, _, err := spawn("setup", name, seed, seconds, false)
			if err != nil {
				return nil, err
			}
			rec.SetupSamples = append(rec.SetupSamples, s)
		}
	}
	s, res, err := spawn("run", name, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	rec.SetupSamples = append(rec.SetupSamples, s)
	rec.childResult = *res
	rec.Metrics.set(mSetup, "s", median(rec.SetupSamples))
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		declared[d.Name] = true
	}
	rec.measured = map[string]bool{}
	for metric := range rec.Metrics {
		if !declared[metric] {
			return nil, fmt.Errorf("%s: metric %s is not declared in %s", name, metric, benchmarkJSON)
		}
		rec.measured[metric] = true
	}
	defs, strict := bf.EndToEnd, true
	if traced {
		defs, strict = bf.PerLayer, false
	}
	if rec.Metrics, err = rec.Metrics.project(defs, strict); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return rec, nil
}

// print writes the run for a reader: every metric by name, with its unit,
// and the sample counts and spreads kept in Detail.
func (r *runRecord) print(bf *benchmarkFile, traced bool) {
	defs := bf.EndToEnd
	if traced {
		defs = bf.PerLayer
	}
	fmt.Printf("== %s seed %d: %d ops attempted, %d failed (fail share %.4f)\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	skipped := 0
	for _, d := range defs {
		if !r.measured[d.Name] {
			skipped++
			continue
		}
		fmt.Printf("  %-32s %14.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	if skipped > 0 {
		fmt.Printf("  (%d per-layer metrics of layers this workload does not call read 0)\n", skipped)
	}
	for _, k := range sortedKeys(r.Detail) {
		v, _ := json.Marshal(r.Detail[k])
		fmt.Printf("  . %s %s\n", k, v)
	}
	if len(r.SetupSamples) > 1 {
		fmt.Printf("  . setup_samples_s %v\n", r.SetupSamples)
	}
	if r.HostFactor > 0 {
		fmt.Printf("  . host_factor %.4f (op_ms and op_tail_ms are measured x this, work_per_s measured / this; raw_ lines and setup_s are as measured)\n", r.HostFactor)
	}
	if r.Valid != nil && !*r.Valid {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: INVALID RUN: the load generator ran late or short; repeat it\n", r.Workload, r.Seed)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: FAILED: %s\n", r.Workload, r.Seed, f)
	}
}

func hostInfo() map[string]string {
	h := map[string]string{
		"num_cpu":    fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"revision":   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h["revision"] = strings.TrimSpace(s.Value)
			}
		}
	}
	return h
}
