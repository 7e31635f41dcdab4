// The routing-choice study (Table II): Splicer's TSR for each path type,
// path count and queue scheduling algorithm, at small and large scales.
// Rows keep the choice order; each reads its groups (small, then large)
// by position.
package scenario

import (
	"fmt"

	"github.com/splicer-pcn/splicer/internal/channel"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/routing"
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
// specs through the panel runner, so the rows are identical for any worker
// count.
func RoutingChoices(small, large Spec, opts ChoicesOptions, run RunOptions) ([]TableIIRow, error) {
	opts.fill()
	type choice struct {
		group, name string
		apply       func(*RoutingSpec)
	}
	var choices []choice
	for _, pt := range opts.PathTypes {
		choices = append(choices, choice{"Path Type", pt.String(), func(r *RoutingSpec) { r.PathType = pt.String() }})
	}
	for _, k := range opts.PathNumbers {
		choices = append(choices, choice{"Path Number", fmt.Sprintf("%d", k), func(r *RoutingSpec) { r.NumPaths = k }})
	}
	for _, name := range opts.Schedulers {
		if _, err := channel.SchedulerByName(name); err != nil {
			return nil, err
		}
		choices = append(choices, choice{"Scheduling Algorithm", name, func(r *RoutingSpec) { r.Scheduler = name }})
	}
	// One group per (choice, scale), small before large; the rows report
	// each group's across-seed mean TSR.
	scales := []struct {
		name string
		spec Spec
	}{{"small", small}, {"large", large}}
	if opts.SkipLarge {
		scales = scales[:1]
	}
	var groups []group
	for _, ch := range choices {
		for _, sc := range scales {
			s := sc.spec
			ch.apply(&s.Routing)
			groups = append(groups, group{s, pcn.SchemeSplicer, ch.group + "/" + ch.name + " " + sc.name})
		}
	}
	sums, err := runGroups(groups, run)
	if err != nil {
		return nil, fmt.Errorf("scenario: routing choices: %w", err)
	}
	rows := make([]TableIIRow, len(choices))
	for i, ch := range choices {
		rows[i] = TableIIRow{Group: ch.group, Choice: ch.name, Small: sums[i*len(scales)].TSR.Mean}
		if !opts.SkipLarge {
			rows[i].Large = sums[i*len(scales)+1].TSR.Mean
		}
	}
	return rows, nil
}
