// Package routing implements the decision machinery of Splicer's
// rate-based routing protocol (§IV-D, Alg. 2): path selection over four path
// types (Table II), demand splitting into transaction-units, the price-based
// path rate update (eq. 26) and the window congestion controller
// (eqs. 27-28). The event-level execution lives in internal/pcn; this
// package is pure decision logic, which keeps it independently testable.
package routing

import (
	"math"

	"fmt"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// PathType selects the per-pair path computation strategy (Table II).
type PathType int

// Path types evaluated in the paper.
const (
	// KSP is Yen's k-shortest paths.
	KSP PathType = iota + 1
	// Heuristic picks the k feasible paths with the highest channel funds.
	Heuristic
	// EDW is edge-disjoint widest paths — the paper's best performer.
	EDW
	// EDS is edge-disjoint shortest paths.
	EDS
)

func (p PathType) String() string {
	switch p {
	case KSP:
		return "KSP"
	case Heuristic:
		return "Heuristic"
	case EDW:
		return "EDW"
	case EDS:
		return "EDS"
	default:
		return fmt.Sprintf("PathType(%d)", int(p))
	}
}

// PathTypeByName parses a path type name.
func PathTypeByName(name string) (PathType, error) {
	switch name {
	case "KSP":
		return KSP, nil
	case "Heuristic":
		return Heuristic, nil
	case "EDW":
		return EDW, nil
	case "EDS":
		return EDS, nil
	default:
		return 0, fmt.Errorf("routing: unknown path type %q", name)
	}
}

// SelectPaths computes up to k paths from src to dst under the given
// strategy. It may return fewer (or zero) paths on sparse graphs. Callers
// issuing repeated queries should use SelectPathsWith with a shared
// PathFinder.
func SelectPaths(g *graph.Graph, src, dst graph.NodeID, k int, pt PathType) ([]graph.Path, error) {
	return SelectPathsWith(graph.NewPathFinder(g), src, dst, k, pt)
}

// SelectPathsWith is SelectPaths running on the caller's PathFinder scratch
// state, so repeated selections (one per sender-recipient pair on a large
// network) reuse the Dijkstra buffers. All four path types run entirely on
// the finder; EDW masks extracted paths through the finder's stamped edge
// set, so no per-call graph clone is built.
func SelectPathsWith(pf *graph.PathFinder, src, dst graph.NodeID, k int, pt PathType) ([]graph.Path, error) {
	if k <= 0 {
		return nil, fmt.Errorf("routing: k must be positive, got %d", k)
	}
	switch pt {
	case KSP:
		return pf.KShortestPathsUnit(src, dst, k), nil
	case Heuristic:
		return pf.HighestFundPaths(src, dst, k), nil
	case EDW:
		return pf.EdgeDisjointWidestPaths(src, dst, k), nil
	case EDS:
		return pf.EdgeDisjointShortestPaths(src, dst, k), nil
	default:
		return nil, fmt.Errorf("routing: unknown path type %v", pt)
	}
}

// SplitDemand splits a payment value into transaction-units with
// Min-TU <= |d_i| <= Max-TU (except that a value below Min-TU becomes a
// single TU of that value, since payments cannot be padded). The paper sets
// Min-TU = 1, Max-TU = 4.
func SplitDemand(value, minTU, maxTU float64) ([]float64, error) {
	if value <= 0 {
		return nil, fmt.Errorf("routing: demand must be positive, got %v", value)
	}
	if minTU <= 0 || maxTU < minTU {
		return nil, fmt.Errorf("routing: invalid TU bounds [%v, %v]", minTU, maxTU)
	}
	if value <= maxTU {
		return []float64{value}, nil
	}
	// Room for a typical split, so most payments allocate once. The value
	// (a request parameter in splicerd) does not size it.
	tus := make([]float64, 0, 8)
	remaining := value
	for remaining > maxTU {
		tus = append(tus, maxTU)
		remaining -= maxTU
	}
	if remaining < minTU && len(tus) > 0 {
		// Fold the sub-minimum remainder into the last full TU pair so
		// every TU respects the bounds: last TU becomes (maxTU+remaining)/2
		// split evenly across two.
		last := tus[len(tus)-1]
		tus = tus[:len(tus)-1]
		half := (last + remaining) / 2
		tus = append(tus, half, half)
	} else {
		tus = append(tus, remaining)
	}
	return tus, nil
}

// RateController maintains per-path sending rates and congestion windows
// for one source-destination pair.
type RateController struct {
	// Alpha is the rate step α in eq. 26.
	Alpha float64
	// Beta is the multiplicative window decrement β in eq. 27.
	Beta float64
	// Gamma is the window increment numerator γ in eq. 28.
	Gamma float64
	// MinRate floors path rates so a path can always probe its price.
	MinRate float64
	// MinWindow floors windows so a path is never starved forever.
	MinWindow float64
	// MaxBurst floors the token-bucket budget cap so a single TU of any
	// legal size can always eventually pass (>= Max-TU).
	MaxBurst float64

	rates    []float64
	windows  []float64
	inflight []int
	// budget is the remaining value each path may send this τ window;
	// math.Inf(1) disables budgeting (window-only control, as in Spider).
	budget []float64
	// refreshMark is the τ-tick generation this controller was last
	// refreshed in (see TryMarkRefreshed).
	refreshMark uint64
}

// NewRateController creates a controller for k paths with the given initial
// rate and window per path.
func NewRateController(k int, alpha, beta, gamma, initRate, initWindow float64) (*RateController, error) {
	if k <= 0 {
		return nil, fmt.Errorf("routing: need at least one path")
	}
	if alpha <= 0 || beta < 0 || gamma < 0 {
		return nil, fmt.Errorf("routing: invalid controller parameters α=%v β=%v γ=%v", alpha, beta, gamma)
	}
	if initRate <= 0 || initWindow <= 0 {
		return nil, fmt.Errorf("routing: initial rate and window must be positive")
	}
	rc := &RateController{
		Alpha:     alpha,
		Beta:      beta,
		Gamma:     gamma,
		MinRate:   0.1,
		MinWindow: 1,
		MaxBurst:  8,
		rates:     make([]float64, k),
		windows:   make([]float64, k),
		inflight:  make([]int, k),
		budget:    make([]float64, k),
	}
	for i := 0; i < k; i++ {
		rc.rates[i] = initRate
		rc.windows[i] = initWindow
		rc.budget[i] = math.Inf(1)
	}
	return rc, nil
}

// NumPaths returns the number of controlled paths.
func (rc *RateController) NumPaths() int { return len(rc.rates) }

// Rate returns the current sending rate of path i.
func (rc *RateController) Rate(i int) float64 { return rc.rates[i] }

// Window returns the current window of path i.
func (rc *RateController) Window(i int) float64 { return rc.windows[i] }

// Inflight returns the number of unfinished TUs on path i.
func (rc *RateController) Inflight(i int) int { return rc.inflight[i] }

// TotalRate returns Σ_p r_p, the pair's aggregate rate.
func (rc *RateController) TotalRate() float64 {
	total := 0.0
	for _, r := range rc.rates {
		total += r
	}
	return total
}

// UpdateRate applies eq. 26 for path i given the probed path price ϱ:
// r_p += α(U'(r) − ϱ) with the log-utility derivative U'(r) = 1/Σ_p r_p.
func (rc *RateController) UpdateRate(i int, pathPrice float64) {
	u := 1.0
	if tot := rc.TotalRate(); tot > 0 {
		u = 1 / tot
	}
	rc.rates[i] += rc.Alpha * (u - pathPrice)
	if rc.rates[i] < rc.MinRate {
		rc.rates[i] = rc.MinRate
	}
}

// TryMarkRefreshed records that the controller is being refreshed in tick
// generation gen and reports whether this is the first refresh of that
// generation. The τ-probe loop visits a controller through every pair and
// payment bound to it but must refill its budget exactly once per tick; the
// generation stamp replaces the per-tick map[*RateController]bool the loop
// used to allocate. Generations must start at 1 (the zero value marks
// "never refreshed").
func (rc *RateController) TryMarkRefreshed(gen uint64) bool {
	if rc.refreshMark == gen {
		return false
	}
	rc.refreshMark = gen
	return true
}

// RefillBudget adds one τ window's worth of rate to path i's token bucket,
// capped at max(2·rate·τ, MaxBurst). Called at every price-update tick;
// turns the path rate into an actual sending constraint (the rate-based
// control of §IV-D) while letting slow paths accumulate enough budget for a
// full-size TU.
func (rc *RateController) RefillBudget(i int, tau float64) {
	cap := 2 * rc.rates[i] * tau
	if cap < rc.MaxBurst {
		cap = rc.MaxBurst
	}
	b := rc.budget[i]
	if math.IsInf(b, 1) {
		b = 0 // first refill: switch from unbudgeted to budgeted mode
	}
	b += rc.rates[i] * tau
	if b > cap {
		b = cap
	}
	rc.budget[i] = b
}

// Budget returns the remaining sending budget of path i.
func (rc *RateController) Budget(i int) float64 { return rc.budget[i] }

// CanSend reports whether path i has window room and budget for a TU of
// the given value.
func (rc *RateController) CanSend(i int, value float64) bool {
	return float64(rc.inflight[i]) < rc.windows[i] && rc.budget[i] >= value
}

// OnSend records a TU of the given value dispatched on path i, consuming
// window and budget.
func (rc *RateController) OnSend(i int, value float64) {
	rc.inflight[i]++
	if !math.IsInf(rc.budget[i], 1) {
		rc.budget[i] -= value
		if rc.budget[i] < 0 {
			rc.budget[i] = 0
		}
	}
}

// OnSuccess records a completed TU on path i and grows its window
// (eq. 28): w_p += γ / Σ_{p'} w_{p'}.
func (rc *RateController) OnSuccess(i int) {
	rc.release(i)
	total := 0.0
	for _, w := range rc.windows {
		total += w
	}
	if total > 0 {
		rc.windows[i] += rc.Gamma / total
	}
}

// OnAbort records an aborted (marked/expired) TU on path i and shrinks its
// window (eq. 27): w_p -= β.
func (rc *RateController) OnAbort(i int) {
	rc.release(i)
	rc.windows[i] -= rc.Beta
	if rc.windows[i] < rc.MinWindow {
		rc.windows[i] = rc.MinWindow
	}
}

func (rc *RateController) release(i int) {
	if rc.inflight[i] > 0 {
		rc.inflight[i]--
	}
}

// PickPath chooses the path for a TU of the given value: the path with
// window room and budget whose rate headroom (rate discounted by inflight
// load) is largest. Returns -1 when every path is blocked.
func (rc *RateController) PickPath(value float64) int {
	best := -1
	bestScore := 0.0
	for i := range rc.rates {
		if !rc.CanSend(i, value) {
			continue
		}
		score := rc.rates[i] / (1 + float64(rc.inflight[i]))
		if best == -1 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// PathPrice sums per-channel prices ξ along a path and applies the fee
// multiplier (eq. 25): ϱ_p = (1+T_fee)·Σξ. The price function abstracts the
// channel state lookup.
func PathPrice(p graph.Path, tFee float64, price func(e graph.EdgeID, from graph.NodeID) float64) float64 {
	sum := 0.0
	for i, eid := range p.Edges {
		sum += price(eid, p.Nodes[i])
	}
	return (1 + tFee) * sum
}
