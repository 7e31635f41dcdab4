// Command scenarios is the front end of the declarative scenario engine:
// list the registered scenarios, describe their specs, run them (or a user
// JSON spec file), and diff regenerated output against golden CSVs.
//
//	scenarios list
//	scenarios describe fig7c
//	scenarios run figchurn -out results -workers -1
//	scenarios run -workers -1 -seeds 5 small     # flags may come first
//	scenarios run large -cpuprofile cpu.out
//	scenarios run -spec examples/scenarios/bursty-erdos-renyi.json
//	scenarios run all -out results
//	scenarios diff fig7c -golden internal/scenario/testdata/golden/fig7c.csv
//
// Registered scenarios reproduce the paper's figures and tables CSV-for-CSV;
// the groups small and large run the paper's small-scale (Figs. 7, 9a–c,
// 9e, Table I) and large-scale (Figs. 8, 9d, 9f) panels. A JSON spec file
// turns a new topology × workload × dynamics × scheme combination into a
// run without writing Go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/splicer-pcn/splicer/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = list()
	case "describe":
		err = describe(os.Args[2:])
	case "run":
		err = run(os.Args[2:])
	case "diff":
		err = diff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  scenarios list
  scenarios describe <name>
  scenarios run <name>[,<name>...]|small|large|all [-out dir] [-workers N] [-seeds N] [-max-mem-mb M]
                [-cpuprofile file] [-memprofile file]
  scenarios run -spec file.json [-out dir]
  scenarios diff <name> [-golden file.csv] [-out dir]`)
}

func list() error {
	fmt.Println("registered scenarios:")
	for _, name := range scenario.Names() {
		e, _ := scenario.Lookup(name)
		fmt.Printf("  %-16s %s\n", name, e.Description)
	}
	fmt.Println("\nbuiltin assets (for spec files):", strings.Join(scenario.BuiltinAssets(), ", "))
	return nil
}

// describeEntry is the JSON shape of `scenarios describe`.
type describeEntry struct {
	Name      string          `json:"name"`
	Title     string          `json:"title"`
	Kind      string          `json:"kind"`
	Schemes   []string        `json:"schemes,omitempty"`
	Axis      *scenario.Axis  `json:"axis,omitempty"`
	Metric    scenario.Metric `json:"metric,omitempty"`
	Omegas    []float64       `json:"omegas,omitempty"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	SpecLarge json.RawMessage `json:"spec_large,omitempty"`
	// Attack summarizes an armed adversarial injector: the attack type, the
	// swept intensity grid and the per-kind knobs (hold time, target region,
	// recovery interval) at a glance, without digging through the spec JSON.
	Attack *attackInfo `json:"attack,omitempty"`
	// Footprint sizes the entry's largest cell (worst swept axis value), so
	// 100k-node runs can be vetted against available memory up front.
	Footprint *footprintInfo `json:"footprint,omitempty"`
}

type attackInfo struct {
	Type           string    `json:"type"`
	Intensities    []float64 `json:"intensities,omitempty"`
	Start          float64   `json:"start"`
	Duration       float64   `json:"duration,omitempty"`
	Attackers      int       `json:"attackers,omitempty"`
	HoldTime       float64   `json:"hold_time,omitempty"`
	Value          float64   `json:"value,omitempty"`
	RegionFraction float64   `json:"region_fraction,omitempty"`
	RecoverAfter   float64   `json:"recover_after,omitempty"`
}

type footprintInfo struct {
	Nodes    int   `json:"nodes"`
	Edges    int   `json:"edges"`
	ApproxMB int64 `json:"approx_mb"`
}

func kindName(k scenario.Kind) string {
	switch k {
	case scenario.KindFigure:
		return "figure-sweep"
	case scenario.KindChurn:
		return "churn-panel"
	case scenario.KindBalanceCost, scenario.KindTradeoff, scenario.KindHubCount, scenario.KindDelayOverhead:
		return "placement-panel"
	case scenario.KindStatic:
		return "static-table"
	case scenario.KindRoutingChoices:
		return "routing-choices"
	case scenario.KindSchemeTable:
		return "scheme-table"
	case scenario.KindAttack:
		return "attack-panel"
	case scenario.KindRetry:
		return "retry-panel"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

func describe(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("describe takes exactly one scenario name")
	}
	e, ok := scenario.Lookup(args[0])
	if !ok {
		return fmt.Errorf("unknown scenario %q (use list)", args[0])
	}
	out := describeEntry{
		Name: e.Name, Title: e.Title, Kind: kindName(e.Kind),
		Schemes: e.Schemes, Metric: e.Metric, Omegas: e.Omegas,
	}
	if len(e.Axis.Values) > 0 {
		axis := e.Axis
		out.Axis = &axis
	}
	if e.Kind != scenario.KindStatic {
		spec, err := e.Base.JSON()
		if err != nil {
			return err
		}
		out.Spec = spec
	}
	if e.BaseLarge != nil {
		spec, err := e.BaseLarge.JSON()
		if err != nil {
			return err
		}
		out.SpecLarge = spec
	}
	if a := e.Base.Attack; a != nil {
		out.Attack = &attackInfo{
			Type: a.Type, Intensities: e.Axis.Values,
			Start: a.Start, Duration: a.Duration,
			Attackers: a.Attackers, HoldTime: a.HoldTime, Value: a.Value,
			RegionFraction: a.RegionFraction, RecoverAfter: a.RecoverAfter,
		}
	}
	if fp, err := e.MaxFootprint(); err == nil && fp.ApproxBytes > 0 {
		out.Footprint = &footprintInfo{Nodes: fp.Nodes, Edges: fp.Edges, ApproxMB: fp.ApproxMB()}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// groups name the paper's two evaluation scales; run takes a group name in
// place of the comma list it stands for.
var groups = map[string][]string{
	"small": {"fig7a", "fig7b", "fig7c", "fig7d", "fig9a", "fig9b", "fig9c", "fig9e", "table1"},
	"large": {"fig8a", "fig8b", "fig8c", "fig8d", "fig9d", "fig9f"},
}

// parseArgs parses fs over args and returns the one positional argument, or
// "" when there is none. The positional may come before the flags or after
// them (`run <name> -flags`, `run -flags <name>`); a second one is an error
// rather than silently dropped.
func parseArgs(fs *flag.FlagSet, args []string) (string, error) {
	var name string
	for {
		if err := fs.Parse(args); err != nil {
			return "", err
		}
		args = fs.Args()
		if len(args) == 0 {
			return name, nil
		}
		if name != "" {
			return "", fmt.Errorf("unexpected argument %q after %q (name several scenarios as one comma list)", args[0], name)
		}
		name, args = args[0], args[1:]
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	outDir := fs.String("out", "results", "output directory for CSV files")
	workers := fs.Int("workers", 0, "sweep workers: 0/1 serial, N parallel, -1 all cores (identical results)")
	seeds := fs.Int("seeds", 1, "seeds per sweep cell; points report the across-seed mean")
	specPath := fs.String("spec", "", "run a JSON spec file instead of a registered scenario")
	maxMemMB := fs.Int64("max-mem-mb", 0, "fail fast when a run's estimated footprint exceeds this budget (MiB); 0 = available memory, negative = no gate")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf := fs.String("memprofile", "", "write a heap profile, taken after the run, to this file")
	arg, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfiles()
	opts := scenario.RunOptions{Workers: *workers}
	if *seeds > 1 {
		opts.SeedCount = *seeds
	}
	budget := memBudgetMB(*maxMemMB)
	if *specPath != "" {
		if arg != "" {
			return fmt.Errorf("run takes a scenario name or -spec, not both")
		}
		return runSpecFile(*specPath, *outDir, opts, budget)
	}
	if arg == "" {
		return fmt.Errorf("run needs a scenario name, a comma list, small, large, all, or -spec file.json")
	}
	names := strings.Split(arg, ",")
	if arg == "all" {
		names = scenario.Names()
	} else if group, ok := groups[arg]; ok {
		names = group
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		e, ok := scenario.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (use list)", name)
		}
		fp, err := e.MaxFootprint()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := gateFootprint(name, fp, budget); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "== running %s...\n", name)
		table, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := writeCSV(*outDir, name, table.CSV()); err != nil {
			return err
		}
		fmt.Println(table.Markdown())
	}
	return nil
}

// startProfiles starts the CPU profile and arms the post-run heap profile.
// The returned stop function finishes both; run defers it, so the profiles
// are written on error returns too.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	stopCPU := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "scenarios:", err)
			}
		}
	}
	return func() {
		stopCPU()
		if memPath == "" {
			return
		}
		if err := writeHeapProfile(memPath); err != nil {
			fmt.Fprintln(os.Stderr, "scenarios:", err)
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runSpecFile(path, outDir string, opts scenario.RunOptions, budgetMB int64) error {
	spec, err := scenario.LoadSpec(path)
	if err != nil {
		return err
	}
	name := spec.Name
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		spec.Name = name
	}
	fp, err := scenario.EstimateFootprint(spec)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := gateFootprint(name, fp, budgetMB); err != nil {
		return err
	}
	schemes := scenario.DefaultSchemes()
	if spec.Scheme != "" {
		schemes = []string{spec.Scheme}
	}
	fmt.Fprintf(os.Stderr, "== running spec %s (%s)...\n", name, path)
	table, err := scenario.SchemeTable(spec, schemes, opts)
	if err != nil {
		return err
	}
	if err := writeCSV(outDir, name, table.CSV()); err != nil {
		return err
	}
	fmt.Println(table.Markdown())
	return nil
}

// memBudgetMB resolves the -max-mem-mb flag: an explicit positive budget is
// used as-is, 0 auto-detects available memory, and a negative value (or an
// unreadable /proc/meminfo) disables the gate (returns 0).
func memBudgetMB(flagMB int64) int64 {
	if flagMB > 0 {
		return flagMB
	}
	if flagMB < 0 {
		return 0
	}
	return availableMemMB()
}

// availableMemMB reads MemAvailable from /proc/meminfo; 0 when unknown
// (non-Linux, restricted container), which disables the gate.
func availableMemMB() int64 {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "MemAvailable:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb >> 10
	}
	return 0
}

// gateFootprint fails fast when a run's estimated resident state would not
// fit the memory budget — the point of estimating the 100k-node cells before
// building them. budgetMB 0 means no gate.
func gateFootprint(name string, fp scenario.Footprint, budgetMB int64) error {
	need := fp.ApproxMB()
	if budgetMB <= 0 || need <= budgetMB {
		return nil
	}
	return fmt.Errorf("%s: estimated footprint ~%d MiB (%d nodes / %d edges) exceeds the %d MiB memory budget; rerun with -max-mem-mb %d to override or -max-mem-mb -1 to disable the gate",
		name, need, fp.Nodes, fp.Edges, budgetMB, need)
}

func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	golden := fs.String("golden", "", "golden CSV to compare against (default internal/scenario/testdata/golden/<name>.csv)")
	outDir := fs.String("out", "results", "where to write the regenerated CSV on mismatch")
	workers := fs.Int("workers", -1, "sweep workers (identical results for any value)")
	name, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("diff needs a scenario name")
	}
	e, ok := scenario.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (use list)", name)
	}
	goldenPath := *golden
	if goldenPath == "" {
		goldenPath = filepath.Join("internal", "scenario", "testdata", "golden", name+".csv")
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	table, err := e.Run(scenario.RunOptions{Workers: *workers})
	if err != nil {
		return err
	}
	got := table.CSV()
	if got == string(want) {
		fmt.Printf("%s: byte-identical to %s\n", name, goldenPath)
		return nil
	}
	if err := writeCSV(*outDir, name+".got", got); err != nil {
		return err
	}
	return fmt.Errorf("%s diverged from %s; regenerated CSV at %s",
		name, goldenPath, filepath.Join(*outDir, name+".got.csv"))
}

func writeCSV(dir, name, csv string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".csv"), []byte(csv), 0o644)
}
