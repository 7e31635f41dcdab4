// The panel runner: every swept panel — figure, churn, attack, retry,
// scheme table, routing choices — is an ordered list of groups, each a spec
// run under one scheme and replicated over the run's seeds. runGroups lays
// the cells out group by group with the seeds innermost, runs them on one
// sweep and summarizes each group's contiguous slice, so a panel reads its
// summaries by position and its output is byte-identical for any worker
// count.
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
	// base+SeedCount−1, relative to each base spec's seed; points report the
	// across-seed mean. 0 or 1 runs the base spec's seed alone.
	SeedCount int
	// Workers bounds the sweep worker pool (the placement panels solve their
	// ω points on it too): 0 or 1 serial, N > 1 parallel, < 0 all cores.
	// Results are identical for any value.
	Workers int
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

// group is one point of a panel: a spec, at its base seed, run under one
// scheme.
type group struct {
	spec   Spec
	scheme pcn.Scheme
	name   string // names the point in a cell error
}

// runGroups runs every group over the run's seeds on one sweep and returns
// one summary per group, in group order.
func runGroups(groups []group, opts RunOptions) ([]sweep.Summary, error) {
	seeds := max(opts.SeedCount, 1)
	cells := make([]sweep.Cell, 0, len(groups)*seeds)
	for _, g := range groups {
		for k := range seeds {
			s := g.spec
			s.Seed += uint64(k)
			cells = append(cells, sweep.Cell{
				Name: fmt.Sprintf("%s seed=%d", g.name, s.Seed),
				Run:  func(planners int) (pcn.Result, error) { return s.runScheme(g.scheme, planners) },
			})
		}
	}
	results := sweep.Run(cells, opts.workerCount())
	if err := sweep.FirstErr(results); err != nil {
		return nil, err
	}
	out := make([]sweep.Summary, len(groups))
	for i := range out {
		out[i] = sweep.Summarize(results[i*seeds : (i+1)*seeds])
	}
	return out, nil
}

// variant is one series of a swept panel: a scheme, and an optional edit of
// the spec at every x.
type variant struct {
	name   string
	scheme pcn.Scheme
	edit   func(*Spec)
}

// schemeVariants maps scheme names through the policy registry, one plain
// variant each.
func schemeVariants(names []string) ([]variant, error) {
	out := make([]variant, len(names))
	for i, name := range names {
		s, err := pcn.SchemeByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = variant{name: s.String(), scheme: s}
	}
	return out, nil
}

// runGrid runs every variant at every value of the swept parameter, x-major:
// variant v at the i-th value is summary i·len(variants)+v.
func runGrid(base Spec, param string, xs []float64, variants []variant, opts RunOptions) ([]sweep.Summary, error) {
	groups := make([]group, 0, len(xs)*len(variants))
	for _, x := range xs {
		scen, err := base.withParam(param, x)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			s := scen
			if v.edit != nil {
				v.edit(&s)
			}
			groups = append(groups, group{s, v.scheme, fmt.Sprintf("%s %s=%g", v.name, param, x)})
		}
	}
	return runGroups(groups, opts)
}

// RunFigure sweeps the axis over every scheme: each (x, scheme, seed) cell
// is an independent simulation, and each figure point is the across-seed
// mean of the chosen metric.
func RunFigure(base Spec, axis Axis, schemeNames []string, metric Metric, opts RunOptions) ([]Series, error) {
	variants, err := schemeVariants(schemeNames)
	if err != nil {
		return nil, err
	}
	sums, err := runGrid(base, axis.Param, axis.Values, variants, opts)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(variants))
	for vi, v := range variants {
		out[vi].Name = v.name
		for xi, x := range axis.Values {
			y, err := metric.of(sums[xi*len(variants)+vi])
			if err != nil {
				return nil, err
			}
			out[vi].Points = append(out[vi].Points, Point{X: x, Y: y})
		}
	}
	return out, nil
}

// panelSeries reads a grid's summaries into one TSR, one mean-delay and one
// failure-reason series per variant.
func panelSeries(xs []float64, variants []variant, sums []sweep.Summary) (tsr, delay []Series, reasons []ReasonSeries) {
	tsr = make([]Series, len(variants))
	delay = make([]Series, len(variants))
	reasons = make([]ReasonSeries, len(variants))
	for vi, v := range variants {
		tsr[vi].Name, delay[vi].Name, reasons[vi].Name = v.name, v.name, v.name
		for xi, x := range xs {
			s := sums[xi*len(variants)+vi]
			tsr[vi].Points = append(tsr[vi].Points, Point{X: x, Y: s.TSR.Mean})
			delay[vi].Points = append(delay[vi].Points, Point{X: x, Y: s.MeanDelay.Mean})
			reasons[vi].Points = append(reasons[vi].Points, ReasonPoint{X: x, Reasons: reasonMeans(s)})
		}
	}
	return tsr, delay, reasons
}

// reasonMeans is a summary's across-seed mean failure count per abort
// reason (nil when it recorded none).
func reasonMeans(s sweep.Summary) map[string]float64 {
	if len(s.FailureReasons) == 0 {
		return nil
	}
	out := make(map[string]float64, len(s.FailureReasons))
	for reason, st := range s.FailureReasons {
		out[reason] = st.Mean
	}
	return out
}

// OnlineLabel names the Splicer-with-online-re-placement churn variant.
const OnlineLabel = "Splicer(online)"

// OnlineReplaceInterval is how often the online churn variant re-runs
// placement (seconds).
const OnlineReplaceInterval = 1.0

// runOnlinePanel sweeps the named parameter over every scheme plus the
// Splicer-with-online-re-placement variant, reporting TSR and mean delay
// series — the churn and attack panels. The base spec must carry a dynamics
// block (the online variant re-runs placement through the dynamics driver).
func runOnlinePanel(base Spec, param string, values []float64, schemeNames []string, opts RunOptions) (tsr, delay []Series, err error) {
	variants, err := schemeVariants(schemeNames)
	if err != nil {
		return nil, nil, err
	}
	variants = append(variants, variant{name: OnlineLabel, scheme: pcn.SchemeSplicer, edit: func(s *Spec) {
		d := *s.Dynamics
		d.ReplaceInterval = OnlineReplaceInterval
		s.Dynamics = &d
	}})
	sums, err := runGrid(base, param, values, variants, opts)
	if err != nil {
		return nil, nil, err
	}
	tsr, delay, _ = panelSeries(values, variants, sums)
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
	return runOnlinePanel(base, "churn_rate", churnRates, schemeNames, opts)
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
	return runOnlinePanel(base, "attack_intensity", intensities, schemeNames, opts)
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
	schemes, err := schemeVariants(schemeNames)
	if err != nil {
		return nil, nil, nil, err
	}
	var variants []variant
	for _, v := range schemes {
		off, on := v, v
		off.edit = func(s *Spec) { s.Routing.Retry = nil }
		on.name += "+retry"
		variants = append(variants, off, on)
	}
	sums, err := runGrid(base, "attack_intensity", intensities, variants, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	tsr, delay, reasons = panelSeries(intensities, variants, sums)
	return tsr, delay, reasons, nil
}

// SchemeTable runs the spec once per scheme and tabulates the headline
// metrics — the presentation for standalone scenarios (replayed traces,
// bursty workloads) that have no swept axis.
func SchemeTable(base Spec, schemeNames []string, opts RunOptions) (Table, error) {
	variants, err := schemeVariants(schemeNames)
	if err != nil {
		return Table{}, err
	}
	groups := make([]group, len(variants))
	for i, v := range variants {
		groups[i] = group{base, v.scheme, v.name}
	}
	sums, err := runGroups(groups, opts)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title: fmt.Sprintf("Scenario %s: scheme comparison", base.Name),
		Header: []string{"scheme", "tsr", "norm_throughput", "mean_delay_s", "mean_queue_delay_s", "mean_imbalance",
			"cache_hit_rate", "label_served", "label_repairs", "fail_reasons"},
	}
	for i, v := range variants {
		s := sums[i]
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%.4f", s.TSR.Mean),
			fmt.Sprintf("%.4f", s.Throughput.Mean),
			fmt.Sprintf("%.4f", s.MeanDelay.Mean),
			fmt.Sprintf("%.4f", s.MeanQueueDelay.Mean),
			fmt.Sprintf("%.4f", s.MeanImbalance.Mean),
			fmt.Sprintf("%.4f", s.CacheHitRate.Mean),
			fmt.Sprintf("%.1f", s.LabelServed.Mean),
			fmt.Sprintf("%.1f", s.LabelRepairs.Mean),
			topReasons(reasonMeans(s)),
		})
	}
	return t, nil
}
