// Sweep runners: the generic machinery that turns a base Spec plus a
// declarative axis into figure series and tables on the internal/sweep
// worker pool. Cell order is fixed (x-major, then scheme/variant, then
// seed) and aggregation folds in that order, so every runner's output is
// byte-identical for any worker count — the same contract the hand-wired
// experiment runners had.
package scenario

import (
	"fmt"

	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/sweep"
)

// Axis declares a swept parameter: the name doubles as the cell axis label
// and the CSV x-column. See Spec.withParam for the known parameters.
type Axis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// Metric selects which summary statistic a figure reports.
type Metric string

// Figure metrics.
const (
	MetricTSR        Metric = "tsr"
	MetricThroughput Metric = "throughput"
)

func (m Metric) of(s sweep.Summary) (float64, error) {
	switch m {
	case MetricThroughput:
		return s.Throughput.Mean, nil
	case MetricTSR, "":
		return s.TSR.Mean, nil
	default:
		return 0, fmt.Errorf("scenario: unknown metric %q", m)
	}
}

// RunOptions carries the execution knobs shared by every runner.
type RunOptions struct {
	// SeedCount replicates every cell over seeds base, base+1, …,
	// base+SeedCount−1 (relative to each base spec's seed — the historical
	// -seeds flag semantics); points report the across-seed mean. Takes
	// precedence over Seeds.
	SeedCount int
	// Seeds is an explicit replication seed list (empty: the base spec's
	// single seed).
	Seeds []uint64
	// Workers bounds the sweep worker pool (the placement panels solve their
	// ω points on it too): 0 or 1 serial, N > 1 parallel, < 0 all cores.
	// Results are identical for any value.
	Workers int
}

func (o RunOptions) seedsFor(base uint64) []uint64 {
	if o.SeedCount > 0 {
		out := make([]uint64, o.SeedCount)
		for i := range out {
			out[i] = base + uint64(i)
		}
		return out
	}
	if len(o.Seeds) > 0 {
		return o.Seeds
	}
	return []uint64{base}
}

func (o RunOptions) workerCount() int {
	switch {
	case o.Workers < 0:
		return 0 // all cores
	case o.Workers == 0:
		return 1 // serial default
	default:
		return o.Workers
	}
}

// parseSchemes maps scheme names through the policy registry.
func parseSchemes(names []string) ([]pcn.Scheme, error) {
	out := make([]pcn.Scheme, len(names))
	for i, name := range names {
		s, err := pcn.SchemeByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// figKey addresses one figure point in the aggregated sweep output.
type figKey struct {
	scheme pcn.Scheme
	x      float64
}

// RunFigure sweeps the axis over every scheme: each (x, scheme, seed) cell
// is an independent simulation, and each figure point is the across-seed
// mean of the chosen metric.
func RunFigure(base Spec, axis Axis, schemeNames []string, metric Metric, opts RunOptions) ([]Series, error) {
	schemes, err := parseSchemes(schemeNames)
	if err != nil {
		return nil, err
	}
	var cells []sweep.Cell
	for _, x := range axis.Values {
		scen, err := base.withParam(axis.Param, x)
		if err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			for _, seed := range opts.seedsFor(base.Seed) {
				cell := scen
				cell.Seed = seed
				cells = append(cells, cell.Cell(scheme, axis.Param, x, ""))
			}
		}
	}
	results := sweep.Run(cells, opts.workerCount())
	if err := sweep.FirstErr(results); err != nil {
		return nil, err
	}
	byKey := map[figKey]sweep.Summary{}
	for _, s := range sweep.Aggregate(results) {
		byKey[figKey{s.Scheme, s.X}] = s
	}
	out := make([]Series, len(schemes))
	for si, scheme := range schemes {
		out[si].Name = scheme.String()
		for _, x := range axis.Values {
			y, err := metric.of(byKey[figKey{scheme, x}])
			if err != nil {
				return nil, err
			}
			out[si].Points = append(out[si].Points, Point{X: x, Y: y})
		}
	}
	return out, nil
}

// OnlineLabel names the Splicer-with-online-re-placement churn variant.
const OnlineLabel = "Splicer(online)"

// OnlineReplaceInterval is how often the online churn variant re-runs
// placement (seconds).
const OnlineReplaceInterval = 1.0

// panelVariant is one line of a scheme-panel figure (churn or attack).
type panelVariant struct {
	scheme  pcn.Scheme
	label   string // aggregation label; "" for the plain scheme
	name    string // series name
	replace bool
}

// runVariantPanel sweeps the named parameter over every scheme plus the
// Splicer-with-online-re-placement variant, reporting TSR and mean delay
// series — the shared machinery behind the churn and attack panels. The
// base spec must carry a dynamics block (the online variant re-runs
// placement through the dynamics driver).
func runVariantPanel(base Spec, param string, values []float64, schemeNames []string, opts RunOptions) (tsr, delay []Series, err error) {
	schemes, err := parseSchemes(schemeNames)
	if err != nil {
		return nil, nil, err
	}
	var variants []panelVariant
	for _, sc := range schemes {
		variants = append(variants, panelVariant{scheme: sc, name: sc.String()})
	}
	variants = append(variants, panelVariant{
		scheme: pcn.SchemeSplicer, label: "online", name: OnlineLabel, replace: true,
	})
	var cells []sweep.Cell
	for _, x := range values {
		for _, v := range variants {
			for _, seed := range opts.seedsFor(base.Seed) {
				scen, err := base.withParam(param, x)
				if err != nil {
					return nil, nil, err
				}
				scen.Seed = seed
				if v.replace {
					d := *scen.Dynamics
					d.ReplaceInterval = OnlineReplaceInterval
					scen.Dynamics = &d
				}
				cells = append(cells, scen.Cell(v.scheme, param, x, v.label))
			}
		}
	}
	results := sweep.Run(cells, opts.workerCount())
	if err := sweep.FirstErr(results); err != nil {
		return nil, nil, err
	}
	type key struct {
		scheme pcn.Scheme
		label  string
		x      float64
	}
	byKey := map[key]sweep.Summary{}
	for _, s := range sweep.Aggregate(results) {
		byKey[key{s.Scheme, s.Label, s.X}] = s
	}
	tsr = make([]Series, len(variants))
	delay = make([]Series, len(variants))
	for vi, v := range variants {
		tsr[vi].Name = v.name
		delay[vi].Name = v.name
		for _, x := range values {
			s := byKey[key{v.scheme, v.label, x}]
			tsr[vi].Points = append(tsr[vi].Points, Point{X: x, Y: s.TSR.Mean})
			delay[vi].Points = append(delay[vi].Points, Point{X: x, Y: s.MeanDelay.Mean})
		}
	}
	return tsr, delay, nil
}

// RunChurnPanel sweeps churn rate over every scheme plus the
// Splicer-with-online-re-placement variant, reporting TSR and mean delay
// series. The base spec must carry a dynamics block; its ChurnRate is the
// swept parameter.
func RunChurnPanel(base Spec, churnRates []float64, schemeNames []string, opts RunOptions) (tsr, delay []Series, err error) {
	if base.Dynamics == nil {
		return nil, nil, fmt.Errorf("scenario: churn panel needs a dynamics block in spec %q", base.Name)
	}
	return runVariantPanel(base, "churn_rate", churnRates, schemeNames, opts)
}

// RunAttackPanel sweeps attack intensity over every scheme plus the
// Splicer-with-online-re-placement variant — the resilience panel: how does
// each routing scheme degrade as the attack strengthens, and how much does
// online re-placement recover. The base spec must carry an attack block
// (whose Intensity is the swept parameter) and a dynamics block (churn rate
// 0 for a topology that only the attack perturbs).
func RunAttackPanel(base Spec, intensities []float64, schemeNames []string, opts RunOptions) (tsr, delay []Series, err error) {
	if base.Attack == nil {
		return nil, nil, fmt.Errorf("scenario: attack panel needs an attack block in spec %q", base.Name)
	}
	if base.Dynamics == nil {
		return nil, nil, fmt.Errorf("scenario: attack panel needs a dynamics block in spec %q (the online variant re-places hubs through the dynamics driver)", base.Name)
	}
	return runVariantPanel(base, "attack_intensity", intensities, schemeNames, opts)
}

// RunRetryPanel is the retry-resilience panel: every scheme runs the same
// attacked cell twice — retries unarmed ("<scheme>") and armed
// ("<scheme>+retry") — so each pair of columns quantifies the TSR the
// failure-aware retry layer recovers under that attack. The base spec must
// carry an attack block (Intensity swept), a dynamics block, and an armed
// routing.retry block (the off variant strips it). A per-variant failure
// breakdown rides along so the recovery is attributable by abort reason.
func RunRetryPanel(base Spec, intensities []float64, schemeNames []string, opts RunOptions) (tsr, delay []Series, reasons []ReasonSeries, err error) {
	if base.Attack == nil {
		return nil, nil, nil, fmt.Errorf("scenario: retry panel needs an attack block in spec %q", base.Name)
	}
	if base.Dynamics == nil {
		return nil, nil, nil, fmt.Errorf("scenario: retry panel needs a dynamics block in spec %q", base.Name)
	}
	if base.Routing.Retry == nil {
		return nil, nil, nil, fmt.Errorf("scenario: retry panel needs an armed routing.retry block in spec %q", base.Name)
	}
	schemes, err := parseSchemes(schemeNames)
	if err != nil {
		return nil, nil, nil, err
	}
	type retryVariant struct {
		scheme pcn.Scheme
		label  string // aggregation label; "retry" for the armed variant
		name   string
		armed  bool
	}
	var variants []retryVariant
	for _, sc := range schemes {
		variants = append(variants,
			retryVariant{scheme: sc, name: sc.String()},
			retryVariant{scheme: sc, label: "retry", name: sc.String() + "+retry", armed: true})
	}
	var cells []sweep.Cell
	for _, x := range intensities {
		for _, v := range variants {
			for _, seed := range opts.seedsFor(base.Seed) {
				scen, err := base.withParam("attack_intensity", x)
				if err != nil {
					return nil, nil, nil, err
				}
				scen.Seed = seed
				if !v.armed {
					scen.Routing.Retry = nil
				}
				cells = append(cells, scen.Cell(v.scheme, "attack_intensity", x, v.label))
			}
		}
	}
	results := sweep.Run(cells, opts.workerCount())
	if err := sweep.FirstErr(results); err != nil {
		return nil, nil, nil, err
	}
	type key struct {
		scheme pcn.Scheme
		label  string
		x      float64
	}
	byKey := map[key]sweep.Summary{}
	for _, s := range sweep.Aggregate(results) {
		byKey[key{s.Scheme, s.Label, s.X}] = s
	}
	tsr = make([]Series, len(variants))
	delay = make([]Series, len(variants))
	reasons = make([]ReasonSeries, len(variants))
	for vi, v := range variants {
		tsr[vi].Name = v.name
		delay[vi].Name = v.name
		reasons[vi].Name = v.name
		for _, x := range intensities {
			s := byKey[key{v.scheme, v.label, x}]
			tsr[vi].Points = append(tsr[vi].Points, Point{X: x, Y: s.TSR.Mean})
			delay[vi].Points = append(delay[vi].Points, Point{X: x, Y: s.MeanDelay.Mean})
			rp := ReasonPoint{X: x}
			if len(s.FailureReasons) > 0 {
				rp.Reasons = make(map[string]float64, len(s.FailureReasons))
				for reason, st := range s.FailureReasons {
					rp.Reasons[reason] = st.Mean
				}
			}
			reasons[vi].Points = append(reasons[vi].Points, rp)
		}
	}
	return tsr, delay, reasons, nil
}

// SchemeTable runs the spec once per scheme and tabulates the headline
// metrics — the presentation for standalone scenarios (replayed traces,
// bursty workloads) that have no swept axis.
func SchemeTable(base Spec, schemeNames []string, opts RunOptions) (Table, error) {
	schemes, err := parseSchemes(schemeNames)
	if err != nil {
		return Table{}, err
	}
	var cells []sweep.Cell
	for _, scheme := range schemes {
		for _, seed := range opts.seedsFor(base.Seed) {
			cell := base
			cell.Seed = seed
			cells = append(cells, cell.Cell(scheme, "", 0, ""))
		}
	}
	results := sweep.Run(cells, opts.workerCount())
	if err := sweep.FirstErr(results); err != nil {
		return Table{}, err
	}
	t := Table{
		Title: fmt.Sprintf("Scenario %s: scheme comparison", base.Name),
		Header: []string{"scheme", "tsr", "norm_throughput", "mean_delay_s", "mean_queue_delay_s", "mean_imbalance",
			"cache_hit_rate", "label_served", "label_repairs", "fail_reasons"},
	}
	byScheme := map[pcn.Scheme]sweep.Summary{}
	for _, s := range sweep.Aggregate(results) {
		byScheme[s.Scheme] = s
	}
	for _, scheme := range schemes {
		s := byScheme[scheme]
		reasonMeans := make(map[string]float64, len(s.FailureReasons))
		for reason, st := range s.FailureReasons {
			reasonMeans[reason] = st.Mean
		}
		t.Rows = append(t.Rows, []string{
			scheme.String(),
			fmt.Sprintf("%.4f", s.TSR.Mean),
			fmt.Sprintf("%.4f", s.Throughput.Mean),
			fmt.Sprintf("%.4f", s.MeanDelay.Mean),
			fmt.Sprintf("%.4f", s.MeanQueueDelay.Mean),
			fmt.Sprintf("%.4f", s.MeanImbalance.Mean),
			fmt.Sprintf("%.4f", s.CacheHitRate.Mean),
			fmt.Sprintf("%.1f", s.LabelServed.Mean),
			fmt.Sprintf("%.1f", s.LabelRepairs.Mean),
			topReasons(reasonMeans),
		})
	}
	return t, nil
}
