// Package sweep runs simulation grids — scheme × seed × parameter cells —
// on a bounded worker pool and aggregates the per-cell results into
// mean/stddev/95%-CI summaries.
//
// Each cell materializes its own Graph, trace and Network inside its Run
// hook, so workers share no mutable state and a sweep is embarrassingly
// parallel. Run returns results in cell order regardless of scheduling, and
// Aggregate folds them in that fixed order, so a sweep's output is
// byte-identical for any worker count.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"github.com/splicer-pcn/splicer/internal/pcn"
)

// Cell is one simulation of a sweep grid. Scheme, Seed and the axis fields
// label the cell for grouping; Run executes it.
type Cell struct {
	Scheme pcn.Scheme
	Seed   uint64
	// Axis names the swept parameter (e.g. "channel_scale") and X is its
	// value for this cell. Label carries non-numeric choices (e.g. a
	// scheduler name); cells with equal (Scheme, Axis, X, Label) aggregate
	// into one summary across seeds.
	Axis  string
	X     float64
	Label string
	// Run builds the cell's private graph, inputs and network and runs
	// them. It must not share mutable state with other cells: workers call
	// it concurrently. planners is the cell's share of the cores (see Run)
	// and belongs in pcn.Config.Parallelism unless the cell's own spec pins
	// a width.
	Run func(planners int) (pcn.Result, error)
}

// CellResult pairs a cell with its simulation outcome.
type CellResult struct {
	Cell   Cell
	Result pcn.Result
	Err    error
}

// RunCell executes a single cell synchronously, as a process's only cell: it
// may plan on every core (pcn.Config.Parallelism 0). A panic in the cell's
// Run hook (or anywhere downstream in its simulation) is recovered into
// CellResult.Err — value and stack preserved — so one poisoned cell fails
// in place instead of killing a whole sweep's process.
func RunCell(c Cell) CellResult { return runCell(c, 0) }

func runCell(c Cell, planners int) (out CellResult) {
	out = CellResult{Cell: c}
	defer func() {
		if r := recover(); r != nil {
			out.Err = fmt.Errorf("sweep: cell panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if c.Run == nil {
		out.Err = fmt.Errorf("sweep: cell has no Run hook")
		return out
	}
	out.Result, out.Err = c.Run(planners)
	return out
}

// Run executes the cells on a bounded worker pool. workers <= 0 uses
// GOMAXPROCS; workers == 1 runs sequentially in the calling goroutine. The
// result slice is indexed like cells, independent of scheduling order.
//
// The cores are budgeted once, here: W sweep workers leave each running
// cell max(1, GOMAXPROCS/W) of them for its own route-planning workers
// (pcn.Config.Parallelism), so a sweep that fills the cores runs every cell
// on the serial path and a sweep of one worker lets each cell plan on all
// of them. Outputs are byte-identical either way.
func Run(cells []Cell, workers int) []CellResult {
	results := make([]CellResult, len(cells))
	if len(cells) == 0 {
		return results
	}
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = procs
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	planners := max(1, procs/workers)
	if workers == 1 {
		for i, c := range cells {
			results[i] = runCell(c, planners)
		}
		return results
	}
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = runCell(cells[i], planners)
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	return results
}

// FirstErr returns the first cell error in cell order, annotated with the
// failing cell's labels, or nil.
func FirstErr(results []CellResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("sweep: %v seed=%d %s=%g %s: %w",
				r.Cell.Scheme, r.Cell.Seed, r.Cell.Axis, r.Cell.X, r.Cell.Label, r.Err)
		}
	}
	return nil
}
