// Package sweep is the one bounded worker pool behind every swept panel:
// Each runs indexed jobs on it, Run runs simulation cells on it with panic
// recovery and a per-cell share of the cores, and Summarize folds one group
// of replicated cells into mean/stddev/95%-CI statistics.
//
// Each cell materializes its own Graph, trace and Network inside its Run
// hook, so workers share no mutable state and a sweep is embarrassingly
// parallel. Run returns results in cell order regardless of scheduling;
// callers lay each group's seeds out contiguously and summarize each slice
// in that order, so a sweep's output is byte-identical for any worker
// count.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"github.com/splicer-pcn/splicer/internal/pcn"
)

// Cell is one simulation of a sweep grid.
type Cell struct {
	// Name identifies the cell in an error (scheme, swept point, seed).
	Name string
	// Run builds the cell's private graph, inputs and network and runs
	// them. It must not share mutable state with other cells: workers call
	// it concurrently. planners is the cell's share of the cores (see Each)
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

// Each calls job(i, planners) once for every i in [0, n) on a bounded
// worker pool. workers <= 0 uses GOMAXPROCS; workers == 1 runs the jobs in
// order in the calling goroutine. Jobs write their outcome by index, so
// what they produce is independent of scheduling order.
//
// The cores are budgeted once, here: W workers leave each job
// max(1, GOMAXPROCS/W) of them for its own route-planning workers
// (pcn.Config.Parallelism), so a sweep that fills the cores runs every cell
// on the serial path and a sweep of one worker lets each cell plan on all
// of them. Outputs are byte-identical either way.
func Each(n, workers int, job func(i, planners int)) {
	if n == 0 {
		return
	}
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = procs
	}
	workers = min(workers, n)
	planners := max(1, procs/workers)
	if workers == 1 {
		for i := range n {
			job(i, planners)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := range work {
				job(i, planners)
			}
		}()
	}
	for i := range n {
		work <- i
	}
	close(work)
	wg.Wait()
}

// Run executes the cells on the pool (see Each for workers and the planner
// budget). The result slice is indexed like cells.
func Run(cells []Cell, workers int) []CellResult {
	results := make([]CellResult, len(cells))
	Each(len(cells), workers, func(i, planners int) { results[i] = runCell(cells[i], planners) })
	return results
}

// FirstErr returns the first cell error in cell order, annotated with the
// failing cell's name, or nil.
func FirstErr(results []CellResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("sweep: %s: %w", r.Cell.Name, r.Err)
		}
	}
	return nil
}
