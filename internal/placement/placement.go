// Package placement implements the PCH placement problem of Splicer §IV-B/C:
// choosing which candidate smooth nodes become payment channel hubs so that
// the balance cost
//
//	C_B(x, y) = C_M(y) + ω·C_S(x, y)
//
// is minimized, where C_M is the client-management cost (eq. 3), C_S the
// hub-synchronization cost (eq. 4) and ω the tradeoff weight.
//
// Three solvers are provided, and Solve picks between the first and the
// last by instance size:
//
//   - SolveExhaustive — enumerates all non-empty candidate subsets; the
//     ground-truth optimum for small instances.
//   - SolveMILP — the paper's small-scale track: the standard linearization
//     (eqs. 6-10) handed to the internal branch-and-bound MILP solver.
//   - SolveDoubleGreedy — the paper's large-scale track: Buchbinder et al.'s
//     double-greedy 1/2-approximation applied to the submodular complement
//     of the supermodular set function f(X) = C_B(x_X, y(x_X)) (Alg. 1).
//
// Lemma 1 (optimal assignment for a fixed placement) is one allocation-free
// pass that Assign, Evaluate and all three solvers share.
package placement

import (
	"fmt"
	"math"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/lp"
	"github.com/splicer-pcn/splicer/internal/milp"
	"github.com/splicer-pcn/splicer/internal/rng"
)

// Default per-hop cost coefficients from the paper's §V-A parameter
// settings: ζ_mn = 0.02·hops_mn, δ_nl = 0.01·hops_nl, ε_nl = 0.05·hops_nl.
const (
	DefaultMgmtPerHop      = 0.02
	DefaultSyncPerHop      = 0.01
	DefaultSyncConstPerHop = 0.05
)

// Instance is a concrete placement problem: the cost matrices between
// clients and candidate smooth nodes, and the tradeoff weight ω.
type Instance struct {
	// Clients and Candidates give the node identities (for reporting);
	// the cost matrices are indexed by position in these slices.
	Clients    []graph.NodeID
	Candidates []graph.NodeID
	// Mgmt[m][n] is ζ_mn, the management cost of assigning client m to
	// candidate n.
	Mgmt [][]float64
	// Sync[n][l] is δ_nl, the per-managed-client synchronization cost
	// between candidates n and l.
	Sync [][]float64
	// SyncConst[n][l] is ε_nl, the constant synchronization cost between
	// candidates n and l.
	SyncConst [][]float64
	// Omega is ω, the weight on synchronization cost.
	Omega float64
}

// Validate checks dimensions and value sanity.
func (in *Instance) Validate() error {
	m, n := len(in.Clients), len(in.Candidates)
	if m == 0 {
		return fmt.Errorf("placement: no clients")
	}
	if n == 0 {
		return fmt.Errorf("placement: no candidates")
	}
	if len(in.Mgmt) != m {
		return fmt.Errorf("placement: Mgmt has %d rows, want %d", len(in.Mgmt), m)
	}
	for i, row := range in.Mgmt {
		if len(row) != n {
			return fmt.Errorf("placement: Mgmt row %d has %d cols, want %d", i, len(row), n)
		}
	}
	for name, mat := range map[string][][]float64{"Sync": in.Sync, "SyncConst": in.SyncConst} {
		if len(mat) != n {
			return fmt.Errorf("placement: %s has %d rows, want %d", name, len(mat), n)
		}
		for i, row := range mat {
			if len(row) != n {
				return fmt.Errorf("placement: %s row %d has %d cols, want %d", name, i, len(row), n)
			}
		}
	}
	if in.Omega < 0 {
		return fmt.Errorf("placement: omega must be >= 0, got %v", in.Omega)
	}
	return nil
}

// NewInstanceFromGraph derives an instance from network hop distances using
// the paper's cost coefficients. Candidate-to-candidate and
// client-to-candidate costs are proportional to shortest-path hop counts.
func NewInstanceFromGraph(g *graph.Graph, clients, candidates []graph.NodeID, omega float64) (*Instance, error) {
	return NewInstanceFromHops(CandidateHops(g, candidates), clients, candidates, omega)
}

// CandidateHops runs one BFS per candidate: hops[i][v] is the hop count from
// candidates[i] to node v, -1 when v is unreachable. One such matrix covers
// every cost matrix of an instance, for any ω. The rows share one backing
// array and the searches one queue.
func CandidateHops(g *graph.Graph, candidates []graph.NodeID) [][]int {
	n := g.NumNodes()
	flat := make([]int, len(candidates)*n)
	hops := make([][]int, len(candidates))
	var queue []graph.NodeID
	for i, c := range candidates {
		hops[i] = flat[i*n : (i+1)*n : (i+1)*n]
		queue = g.BFSHopsInto(hops[i], c, queue)
	}
	return hops
}

// NewInstanceFromHops is NewInstanceFromGraph over a CandidateHops matrix
// the caller already holds.
func NewInstanceFromHops(hopsFrom [][]int, clients, candidates []graph.NodeID, omega float64) (*Instance, error) {
	if len(clients) == 0 || len(candidates) == 0 {
		return nil, fmt.Errorf("placement: need clients and candidates")
	}
	inst := &Instance{
		Clients:    append([]graph.NodeID(nil), clients...),
		Candidates: append([]graph.NodeID(nil), candidates...),
		Mgmt:       make([][]float64, len(clients)),
		Sync:       make([][]float64, len(candidates)),
		SyncConst:  make([][]float64, len(candidates)),
		Omega:      omega,
	}
	// One slab backs every management row.
	mgmt := make([]float64, len(clients)*len(candidates))
	for m, cl := range clients {
		inst.Mgmt[m] = mgmt[m*len(candidates) : (m+1)*len(candidates) : (m+1)*len(candidates)]
		for n := range candidates {
			h := hopsFrom[n][cl]
			if h < 0 {
				return nil, fmt.Errorf("placement: client %d unreachable from candidate %d", cl, candidates[n])
			}
			inst.Mgmt[m][n] = DefaultMgmtPerHop * float64(h)
		}
	}
	for n := range candidates {
		inst.Sync[n] = make([]float64, len(candidates))
		inst.SyncConst[n] = make([]float64, len(candidates))
		for l := range candidates {
			h := hopsFrom[n][candidates[l]]
			if h < 0 {
				return nil, fmt.Errorf("placement: candidate %d unreachable from candidate %d", candidates[l], candidates[n])
			}
			inst.Sync[n][l] = DefaultSyncPerHop * float64(h)
			inst.SyncConst[n][l] = DefaultSyncConstPerHop * float64(h)
		}
	}
	return inst, nil
}

// Plan is a placement decision: which candidates are hubs and how clients
// are assigned to them.
type Plan struct {
	// Placed[n] reports whether candidate n is a hub.
	Placed []bool
	// Assign[m] is the candidate index managing client m (-1 if the plan is
	// infeasible, i.e. no hub placed).
	Assign []int
	// Cost breakdown. Total = Mgmt + Omega*Sync.
	MgmtCost  float64
	SyncCost  float64
	TotalCost float64
}

// NumPlaced returns the number of hubs in the plan.
func (p Plan) NumPlaced() int {
	n := 0
	for _, placed := range p.Placed {
		if placed {
			n++
		}
	}
	return n
}

// PlacedCandidates returns the indices of the placed candidates.
func (p Plan) PlacedCandidates() []int {
	var out []int
	for n, placed := range p.Placed {
		if placed {
			out = append(out, n)
		}
	}
	return out
}

// evaluator is the one Lemma-1 cost pass behind Assign, Evaluate and both
// solvers. Its scratch is sized once per instance and reused for every
// placement it scores, so probing a subset allocates nothing. The pass visits
// only placed candidates, in ascending index order, and keeps the summation
// order (and the exact expressions) of the textbook loops over all
// candidates, so every sum, tie and total is bit-for-bit what they compute.
type evaluator struct {
	in *Instance
	// placed lists the placed candidate indices in ascending order; burden[k]
	// is Σ_{l placed} δ_{placed[k],l} and managed[k] the clients assigned to
	// placed[k].
	placed  []int
	burden  []float64
	managed []float64
}

func newEvaluator(in *Instance) *evaluator {
	n := len(in.Candidates)
	return &evaluator{
		in:      in,
		placed:  make([]int, 0, n),
		burden:  make([]float64, n),
		managed: make([]float64, n),
	}
}

// cost scores the placement: the Lemma-1 assignment (written to assign when
// it is non-nil), C_M, C_S and C_B = C_M + ω·C_S. It reports ok = false, and
// infinite costs, when no candidate is placed.
func (e *evaluator) cost(placed []bool, assign []int) (mgmt, sync, total float64, ok bool) {
	in := e.in
	e.placed = e.placed[:0]
	for n, p := range placed {
		if p {
			e.placed = append(e.placed, n)
		}
	}
	if len(e.placed) == 0 {
		inf := math.Inf(1)
		return inf, inf, inf, false
	}
	// Sync burden of each placed candidate.
	for k, n := range e.placed {
		b := 0.0
		for _, l := range e.placed {
			b += in.Sync[n][l]
		}
		e.burden[k] = b
		e.managed[k] = 0
	}
	// Lemma 1: each client goes to the placed candidate minimizing
	// ω·burden + ζ, the first one on ties; C_M (eq. 3) sums in client order.
	for m := range in.Clients {
		row := in.Mgmt[m]
		best, bestCost := -1, math.Inf(1)
		for k, n := range e.placed {
			c := in.Omega*e.burden[k] + row[n]
			if c < bestCost {
				best, bestCost = k, c
			}
		}
		mgmt += row[e.placed[best]]
		e.managed[best]++
		if assign != nil {
			assign[m] = e.placed[best]
		}
	}
	// C_S (eq. 4): Σ_{n,l placed} (δ_nl·|clients of n| + ε_nl).
	for k, n := range e.placed {
		for _, l := range e.placed {
			sync += in.Sync[n][l]*e.managed[k] + in.SyncConst[n][l]
		}
	}
	return mgmt, sync, mgmt + in.Omega*sync, true
}

// plan evaluates the placement into a Plan of its own.
func (e *evaluator) plan(placed []bool) Plan {
	p := Plan{Placed: append([]bool(nil), placed...), Assign: make([]int, len(e.in.Clients))}
	var ok bool
	p.MgmtCost, p.SyncCost, p.TotalCost, ok = e.cost(placed, p.Assign)
	if !ok {
		p.Assign = nil
	}
	return p
}

// Assign computes the Lemma-1 optimal assignment for the placement x: each
// client goes to the placed candidate n minimizing
// ω·Σ_{l placed} δ_nl + ζ_mn. It returns nil if no candidate is placed.
func (in *Instance) Assign(placed []bool) []int {
	return newEvaluator(in).plan(placed).Assign
}

// Evaluate computes the plan (assignment + cost breakdown) for a placement
// vector. An all-false placement yields an infeasible plan with infinite
// cost.
func (in *Instance) Evaluate(placed []bool) Plan {
	return newEvaluator(in).plan(placed)
}

// maxExactCandidates is the largest candidate set Solve answers exactly.
const maxExactCandidates = 16

// Exact reports whether Solve returns the proven optimum for this instance
// (the paper's small-scale track) rather than the double-greedy
// 1/2-approximation.
func (in *Instance) Exact() bool { return len(in.Candidates) <= maxExactCandidates }

// Solve places hubs by the paper's two tracks: exhaustive search on at most
// 16 candidates, the deterministic double greedy (Alg. 1) above.
func (in *Instance) Solve() (Plan, error) {
	if in.Exact() {
		return in.SolveExhaustive()
	}
	return in.SolveDoubleGreedy(nil)
}

// SolveExhaustive enumerates every non-empty subset of candidates and
// returns the optimal plan (the first subset in mask order on ties). It is
// exponential in the number of candidates and refuses instances with more
// than 24.
func (in *Instance) SolveExhaustive() (Plan, error) {
	if err := in.Validate(); err != nil {
		return Plan{}, err
	}
	n := len(in.Candidates)
	if n > 24 {
		return Plan{}, fmt.Errorf("placement: exhaustive solver limited to 24 candidates, got %d", n)
	}
	e := newEvaluator(in)
	bestMask, bestCost := 0, math.Inf(1)
	placed := make([]bool, n)
	for mask := 1; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			placed[i] = mask&(1<<i) != 0
		}
		if _, _, c, _ := e.cost(placed, nil); c < bestCost {
			bestMask, bestCost = mask, c
		}
	}
	if bestMask == 0 {
		return Plan{TotalCost: bestCost}, nil
	}
	for i := 0; i < n; i++ {
		placed[i] = bestMask&(1<<i) != 0
	}
	return e.plan(placed), nil
}

// MILPOptions tunes SolveMILP.
type MILPOptions struct {
	// MaxNodes bounds branch-and-bound (0 = default).
	MaxNodes int
}

// SolveMILP builds the paper's linearized MILP (eqs. 6-10) and solves it
// exactly with branch-and-bound. Variable layout:
//
//	x_n               n in [0,N)            — candidate placed
//	y_mn              m in [0,M), n in [0,N) — client assignment
//	ϑ_nl              n,l in [0,N)           — x_n·x_l linearization
//	φ_nlm             n,l in [0,N), m in [0,M) — ϑ_nl·y_mn linearization
//
// The instance must be small: variables grow as N²·M.
func (in *Instance) SolveMILP(opts MILPOptions) (Plan, error) {
	if err := in.Validate(); err != nil {
		return Plan{}, err
	}
	M, N := len(in.Clients), len(in.Candidates)
	numVars := N + M*N + N*N + N*N*M
	if numVars > 4000 {
		return Plan{}, fmt.Errorf("placement: MILP instance too large (%d variables); use SolveDoubleGreedy", numVars)
	}
	xIdx := func(n int) int { return n }
	yIdx := func(m, n int) int { return N + m*N + n }
	thIdx := func(n, l int) int { return N + M*N + n*N + l }
	phIdx := func(n, l, m int) int { return N + M*N + N*N + (n*N+l)*M + m }

	p := milp.NewProblem(numVars)
	for i := 0; i < numVars; i++ {
		if err := p.SetBinary(i); err != nil {
			return Plan{}, err
		}
	}
	// Objective: Σ ζ_mn y_mn + ω Σ_nl (Σ_m δ_nl φ_nlm + ε_nl ϑ_nl).
	for m := 0; m < M; m++ {
		for n := 0; n < N; n++ {
			p.SetObjectiveCoeff(yIdx(m, n), in.Mgmt[m][n])
		}
	}
	for n := 0; n < N; n++ {
		for l := 0; l < N; l++ {
			p.SetObjectiveCoeff(thIdx(n, l), in.Omega*in.SyncConst[n][l])
			for m := 0; m < M; m++ {
				p.SetObjectiveCoeff(phIdx(n, l, m), in.Omega*in.Sync[n][l])
			}
		}
	}
	// Each client assigned to exactly one candidate.
	for m := 0; m < M; m++ {
		coeffs := map[int]float64{}
		for n := 0; n < N; n++ {
			coeffs[yIdx(m, n)] = 1
		}
		if err := p.AddConstraint(coeffs, lp.EQ, 1); err != nil {
			return Plan{}, err
		}
	}
	// y_mn <= x_n.
	for m := 0; m < M; m++ {
		for n := 0; n < N; n++ {
			if err := p.AddConstraint(map[int]float64{yIdx(m, n): 1, xIdx(n): -1}, lp.LE, 0); err != nil {
				return Plan{}, err
			}
		}
	}
	// ϑ_nl linearization (eq. 8). The diagonal collapses to ϑ_nn = x_n
	// because x_n·x_n = x_n for binaries.
	for n := 0; n < N; n++ {
		for l := 0; l < N; l++ {
			th := thIdx(n, l)
			if n == l {
				if err := p.AddConstraint(map[int]float64{th: 1, xIdx(n): -1}, lp.EQ, 0); err != nil {
					return Plan{}, err
				}
				continue
			}
			if err := p.AddConstraint(map[int]float64{th: 1, xIdx(n): -1}, lp.LE, 0); err != nil {
				return Plan{}, err
			}
			if err := p.AddConstraint(map[int]float64{th: 1, xIdx(l): -1}, lp.LE, 0); err != nil {
				return Plan{}, err
			}
			if err := p.AddConstraint(map[int]float64{th: 1, xIdx(n): -1, xIdx(l): -1}, lp.GE, -1); err != nil {
				return Plan{}, err
			}
		}
	}
	// φ_nlm linearization (eq. 9).
	for n := 0; n < N; n++ {
		for l := 0; l < N; l++ {
			for m := 0; m < M; m++ {
				ph := phIdx(n, l, m)
				if err := p.AddConstraint(map[int]float64{ph: 1, thIdx(n, l): -1}, lp.LE, 0); err != nil {
					return Plan{}, err
				}
				if err := p.AddConstraint(map[int]float64{ph: 1, yIdx(m, n): -1}, lp.LE, 0); err != nil {
					return Plan{}, err
				}
				if err := p.AddConstraint(map[int]float64{ph: 1, thIdx(n, l): -1, yIdx(m, n): -1}, lp.GE, -1); err != nil {
					return Plan{}, err
				}
			}
		}
	}
	sol, err := p.Solve(milp.Options{MaxNodes: opts.MaxNodes})
	if err != nil {
		return Plan{}, err
	}
	if sol.Status != lp.Optimal {
		return Plan{}, fmt.Errorf("placement: MILP solve ended with status %v", sol.Status)
	}
	placed := make([]bool, N)
	for n := 0; n < N; n++ {
		placed[n] = sol.X[xIdx(n)] > 0.5
	}
	// Re-evaluate through Lemma 1 for the canonical cost breakdown; the
	// MILP's assignment is equal-cost by optimality.
	return in.Evaluate(placed), nil
}

// infeasiblePenalty returns a large finite stand-in for f(∅) so the greedy
// marginals remain well-defined. Any value above the worst single-hub cost
// works; we use a comfortable multiple of the total cost mass.
func (in *Instance) infeasiblePenalty() float64 {
	total := 1.0
	for _, row := range in.Mgmt {
		for _, v := range row {
			total += v
		}
	}
	for n := range in.Sync {
		for l := range in.Sync[n] {
			total += in.Omega * (in.Sync[n][l]*float64(len(in.Clients)) + in.SyncConst[n][l])
		}
	}
	return 10 * total
}

// SolveDoubleGreedy runs Alg. 1 (the Buchbinder et al. double-greedy) on the
// submodular complement of f. With src == nil the deterministic variant is
// used (add u when its marginal gain on X is at least the gain of removing
// it from Y); otherwise the randomized variant with acceptance probability
// a'/(a'+b') — the paper's line 5 — is used, which carries the tight 1/2
// approximation bound.
func (in *Instance) SolveDoubleGreedy(src *rng.Source) (Plan, error) {
	if err := in.Validate(); err != nil {
		return Plan{}, err
	}
	n := len(in.Candidates)
	penalty := in.infeasiblePenalty()
	e := newEvaluator(in)
	f := func(placed []bool) float64 {
		_, _, c, _ := e.cost(placed, nil)
		if math.IsInf(c, 1) {
			return penalty
		}
		return c
	}
	x := make([]bool, n) // X_0 = ∅
	y := make([]bool, n) // Y_0 = S
	for i := range y {
		y[i] = true
	}
	fx := f(x)
	fy := f(y)
	for u := 0; u < n; u++ {
		// a_u: gain (cost decrease) of adding u to X.
		x[u] = true
		fxAdd := f(x)
		x[u] = false
		a := fx - fxAdd
		// b_u: gain of removing u from Y.
		y[u] = false
		fyDel := f(y)
		y[u] = true
		b := fy - fyDel

		aPos, bPos := math.Max(a, 0), math.Max(b, 0)
		add := false
		if src == nil {
			add = a >= b
		} else {
			// Paper line 10: if a' = b' = 0, take the probability as 1.
			p := 1.0
			if aPos+bPos > 0 {
				p = aPos / (aPos + bPos)
			}
			add = src.Bool(p) || p == 1
		}
		if add {
			x[u] = true
			fx = fxAdd
		} else {
			y[u] = false
			fy = fyDel
		}
	}
	// X and Y now coincide.
	anyPlaced := false
	for _, p := range x {
		anyPlaced = anyPlaced || p
	}
	if !anyPlaced {
		// Guard: fall back to the single best hub, which always beats the
		// infeasible empty set.
		bestN, bestCost := -1, math.Inf(1)
		single := make([]bool, n)
		for u := 0; u < n; u++ {
			single[u] = true
			if _, _, c, _ := e.cost(single, nil); c < bestCost {
				bestN, bestCost = u, c
			}
			single[u] = false
		}
		x[bestN] = true
	}
	return e.plan(x), nil
}

// IsSupermodularUniform checks Definition 2 on the instance's set function
// for all (A ⊆ B, i ∉ B) pairs over candidate subsets — exponential, so only
// usable on tiny instances. Lemma 2 guarantees the property for uniform sync
// costs δ; tests use this to validate both the lemma and Evaluate.
func (in *Instance) IsSupermodularUniform() (bool, error) {
	n := len(in.Candidates)
	if n > 12 {
		return false, fmt.Errorf("placement: supermodularity check limited to 12 candidates")
	}
	penalty := in.infeasiblePenalty()
	e := newEvaluator(in)
	placed := make([]bool, n)
	f := func(mask int) float64 {
		for i := 0; i < n; i++ {
			placed[i] = mask&(1<<i) != 0
		}
		_, _, c, _ := e.cost(placed, nil)
		if math.IsInf(c, 1) {
			return penalty
		}
		return c
	}
	vals := make([]float64, 1<<n)
	for mask := range vals {
		vals[mask] = f(mask)
	}
	for a := 0; a < 1<<n; a++ {
		for b := a; b < 1<<n; b++ {
			if a&b != a { // A not subset of B
				continue
			}
			for i := 0; i < n; i++ {
				bit := 1 << i
				if b&bit != 0 {
					continue
				}
				da := vals[a|bit] - vals[a]
				db := vals[b|bit] - vals[b]
				if da > db+1e-9 {
					return false, nil
				}
			}
		}
	}
	return true, nil
}
