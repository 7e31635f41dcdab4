// Package contract simulates the smart-contract layer of Splicer's trust
// transference model (§III-B, Fig. 4): the voting contract electing the
// smooth-node candidate list, the placement-optimization contract the
// candidates run to decide the actual PCHs, and the reporting/arbitration
// mechanism that slashes and replaces malicious PCHs.
package contract

import (
	"fmt"
	"sort"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/ledger"
	"github.com/splicer-pcn/splicer/internal/placement"
	"github.com/splicer-pcn/splicer/internal/voting"
)

// Phase of the trust-transference pipeline.
type Phase int

// Pipeline phases (Fig. 4, left to right).
const (
	PhaseVoting Phase = iota + 1
	PhaseCandidates
	PhaseActualPCHs
)

func (p Phase) String() string {
	switch p {
	case PhaseVoting:
		return "voting"
	case PhaseCandidates:
		return "candidates"
	case PhaseActualPCHs:
		return "actual-pchs"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Runtime drives the pipeline over a ledger.
type Runtime struct {
	ledger *ledger.Ledger
	phase  Phase

	// RequiredDeposit is the pledge each actual PCH posts to the public
	// pool for access.
	RequiredDeposit float64
	// ApprovalQuorum is the community-majority fraction for decisions
	// (the paper: 67%).
	ApprovalQuorum float64

	candidates []voting.Candidate
	hubs       []graph.NodeID
	reports    map[graph.NodeID]int // accusation counts against hubs
	removed    map[graph.NodeID]bool
}

// NewRuntime creates a contract runtime over the ledger.
func NewRuntime(l *ledger.Ledger) *Runtime {
	return &Runtime{
		ledger:          l,
		phase:           PhaseVoting,
		RequiredDeposit: 100,
		ApprovalQuorum:  0.67,
		reports:         map[graph.NodeID]int{},
		removed:         map[graph.NodeID]bool{},
	}
}

// Phase returns the current pipeline phase.
func (r *Runtime) Phase() Phase { return r.phase }

// Candidates returns the elected candidate list.
func (r *Runtime) Candidates() []voting.Candidate {
	return append([]voting.Candidate(nil), r.candidates...)
}

// Hubs returns the actual PCHs in effect.
func (r *Runtime) Hubs() []graph.NodeID { return append([]graph.NodeID(nil), r.hubs...) }

// RunElection executes the voting contract: tally ballots, elect the
// candidate list, advance to the candidate phase.
func (r *Runtime) RunElection(cands []voting.Candidate, ballots []voting.Ballot, cfg voting.Config) error {
	if r.phase != PhaseVoting {
		return fmt.Errorf("contract: election in phase %v", r.phase)
	}
	tallied := voting.Tally(cands, ballots)
	winners, err := voting.Elect(tallied, cfg)
	if err != nil {
		return fmt.Errorf("contract: election: %w", err)
	}
	r.candidates = winners
	r.phase = PhaseCandidates
	return nil
}

// RunPlacement executes the placement-optimization contract over the
// candidate list: solve the instance, collect the required deposit from
// every selected hub, advance to long-term operation. accounts maps node id
// to ledger account for deposit collection.
func (r *Runtime) RunPlacement(inst *placement.Instance, accounts map[graph.NodeID]ledger.AccountID) error {
	if r.phase != PhaseCandidates {
		return fmt.Errorf("contract: placement in phase %v", r.phase)
	}
	plan, err := inst.Solve()
	if err != nil {
		return fmt.Errorf("contract: placement solve: %w", err)
	}
	var hubs []graph.NodeID
	for _, idx := range plan.PlacedCandidates() {
		hubs = append(hubs, inst.Candidates[idx])
	}
	// Collect deposits.
	for _, h := range hubs {
		acct, ok := accounts[h]
		if !ok {
			return fmt.Errorf("contract: no account for hub %d", h)
		}
		r.ledger.Submit(ledger.Tx{Kind: ledger.TxDeposit, From: acct, Amount: r.RequiredDeposit})
	}
	if _, rejected := r.ledger.ProduceBlock(); len(rejected) > 0 {
		return fmt.Errorf("contract: deposit collection failed: %v", rejected[0])
	}
	r.hubs = hubs
	r.phase = PhaseActualPCHs
	return nil
}

// Report files a client accusation against a hub. When accusations from
// distinct reporters reach the quorum fraction of totalEntities, the hub is
// slashed and removed; the contract returns true in that case.
func (r *Runtime) Report(hub graph.NodeID, accounts map[graph.NodeID]ledger.AccountID, totalEntities int) (bool, error) {
	if r.phase != PhaseActualPCHs {
		return false, fmt.Errorf("contract: report in phase %v", r.phase)
	}
	if r.removed[hub] {
		return false, fmt.Errorf("contract: hub %d already removed", hub)
	}
	found := false
	for _, h := range r.hubs {
		if h == hub {
			found = true
			break
		}
	}
	if !found {
		return false, fmt.Errorf("contract: %d is not an actual PCH", hub)
	}
	r.reports[hub]++
	if float64(r.reports[hub]) < r.ApprovalQuorum*float64(totalEntities) {
		return false, nil
	}
	// Quorum reached: slash the deposit and remove the hub.
	acct, ok := accounts[hub]
	if !ok {
		return false, fmt.Errorf("contract: no account for hub %d", hub)
	}
	r.ledger.Submit(ledger.Tx{Kind: ledger.TxSlash, To: acct})
	if _, rejected := r.ledger.ProduceBlock(); len(rejected) > 0 {
		return false, fmt.Errorf("contract: slash failed: %v", rejected[0])
	}
	r.removed[hub] = true
	var kept []graph.NodeID
	for _, h := range r.hubs {
		if h != hub {
			kept = append(kept, h)
		}
	}
	r.hubs = kept
	return true, nil
}

// ReplaceHub admits a replacement from the candidate list for a removed
// hub, collecting its deposit. Candidates not already serving are
// considered in descending vote order.
func (r *Runtime) ReplaceHub(accounts map[graph.NodeID]ledger.AccountID) (graph.NodeID, error) {
	if r.phase != PhaseActualPCHs {
		return 0, fmt.Errorf("contract: replace in phase %v", r.phase)
	}
	serving := map[graph.NodeID]bool{}
	for _, h := range r.hubs {
		serving[h] = true
	}
	pool := append([]voting.Candidate(nil), r.candidates...)
	sort.Slice(pool, func(i, j int) bool { return pool[i].Votes > pool[j].Votes })
	for _, c := range pool {
		if serving[c.Node] || r.removed[c.Node] {
			continue
		}
		acct, ok := accounts[c.Node]
		if !ok {
			continue
		}
		r.ledger.Submit(ledger.Tx{Kind: ledger.TxDeposit, From: acct, Amount: r.RequiredDeposit})
		if _, rejected := r.ledger.ProduceBlock(); len(rejected) > 0 {
			continue // cannot afford the pledge; try the next candidate
		}
		r.hubs = append(r.hubs, c.Node)
		return c.Node, nil
	}
	return 0, fmt.Errorf("contract: no eligible replacement candidate")
}
