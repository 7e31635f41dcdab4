// The routing-choice study (Table II): Splicer's TSR for each path type,
// path count and queue scheduling algorithm, at small and large scales.
// Cell order (choice-major, small before large, then seed) and labels are
// part of the golden-fixture contract.
package scenario

import (
	"fmt"

	"github.com/splicer-pcn/splicer/internal/channel"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/sweep"
)

// TableIIRow is one cell group of Table II: a routing choice and its TSR at
// both network scales.
type TableIIRow struct {
	Group  string // "Path Type", "Path Number", "Scheduling Algorithm"
	Choice string
	Small  float64
	Large  float64
}

// ChoicesOptions narrows the routing-choice study for test/bench budgets.
type ChoicesOptions struct {
	// PathTypes, PathNumbers, Schedulers default to the paper's grids when
	// nil/empty.
	PathTypes   []routing.PathType
	PathNumbers []int
	Schedulers  []string
	// SkipLarge drops the large-scale column (test budgets).
	SkipLarge bool
}

func (o *ChoicesOptions) fill() {
	if len(o.PathTypes) == 0 {
		o.PathTypes = []routing.PathType{routing.KSP, routing.Heuristic, routing.EDW, routing.EDS}
	}
	if len(o.PathNumbers) == 0 {
		o.PathNumbers = []int{1, 3, 5, 7}
	}
	if len(o.Schedulers) == 0 {
		o.Schedulers = []string{"FIFO", "LIFO", "SPF", "EDF"}
	}
}

// RoutingChoices runs the Table II study over the small and large base
// specs. All cells run on one sweep worker pool; cell order is fixed so the
// rows are identical for any worker count.
func RoutingChoices(small, large Spec, opts ChoicesOptions, run RunOptions) ([]TableIIRow, error) {
	opts.fill()
	type choice struct {
		group, name string
		apply       func(*RoutingSpec)
	}
	var choices []choice
	for _, pt := range opts.PathTypes {
		pt := pt
		choices = append(choices, choice{"Path Type", pt.String(), func(r *RoutingSpec) { r.PathType = pt.String() }})
	}
	for _, k := range opts.PathNumbers {
		k := k
		choices = append(choices, choice{"Path Number", fmt.Sprintf("%d", k), func(r *RoutingSpec) { r.NumPaths = k }})
	}
	for _, name := range opts.Schedulers {
		name := name
		if _, err := channel.SchedulerByName(name); err != nil {
			return nil, err
		}
		choices = append(choices, choice{"Scheduling Algorithm", name, func(r *RoutingSpec) { r.Scheduler = name }})
	}
	// One cell per (choice, scale, seed); each (choice, scale) group keys on
	// its label and the rows report the across-seed mean TSR.
	var cells []sweep.Cell
	addCells := func(scen Spec, label string, apply func(*RoutingSpec)) {
		for _, seed := range run.seedsFor(scen.Seed) {
			cell := scen
			cell.Seed = seed
			apply(&cell.Routing)
			cells = append(cells, cell.Cell(pcn.SchemeSplicer, "scale", 0, label))
		}
	}
	for _, ch := range choices {
		label := ch.group + "/" + ch.name
		addCells(small, label+" small", ch.apply)
		if !opts.SkipLarge {
			addCells(large, label+" large", ch.apply)
		}
	}
	results := sweep.Run(cells, run.workerCount())
	if err := sweep.FirstErr(results); err != nil {
		return nil, fmt.Errorf("scenario: routing choices: %w", err)
	}
	tsrByLabel := map[string]float64{}
	for _, s := range sweep.Aggregate(results) {
		tsrByLabel[s.Label] = s.TSR.Mean
	}
	rows := make([]TableIIRow, len(choices))
	for i, ch := range choices {
		label := ch.group + "/" + ch.name
		rows[i] = TableIIRow{Group: ch.group, Choice: ch.name, Small: tsrByLabel[label+" small"]}
		if !opts.SkipLarge {
			rows[i].Large = tsrByLabel[label+" large"]
		}
	}
	return rows, nil
}
