// Conservation-of-funds invariant. Off-chain routing moves funds between
// balances and in-flight HTLC locks but never mints or burns them: every
// Lock/Settle/Refund conserves a channel's total, fees are an accounting
// metric rather than a transfer, and rebalancing shifts a channel's split,
// not its sum. The only legitimate changes to the system total are explicit
// capital events — channel funding at setup, the multi-star reshape, hub
// capital pledges, dynamic opens and top-ups — all of which this file
// records. CheckConservation compares the recorded inflow against the live
// sum, so any scheme-policy or lifecycle bug that leaks value (a double
// settle, a refund after settle, a lost in-flight TU) surfaces as a broken
// invariant instead of a silently wrong figure.

package pcn

import "fmt"

// recordCapital accounts an explicit capital inflow (channel funding or
// deposit). Amounts are recorded at the moment the funds enter a channel.
func (n *Network) recordCapital(amount float64) { n.capitalIn += amount }

// TotalFunds returns the funds currently held across all channels — both
// directions' spendable balances plus in-flight HTLC locks. Closed channels
// are included: closing settles funds on-chain but does not destroy them,
// and in-flight HTLCs on a closed channel remain settleable.
func (n *Network) TotalFunds() float64 {
	total := 0.0
	for _, ch := range n.chans {
		total += ch.Capacity()
	}
	return total
}

// CheckConservation verifies the conservation-of-funds invariant. The
// tolerance scales with the capital in the system: each HTLC operation moves
// exactly what the 1e-9 Settle/Refund tolerance admits, so the live sum can
// drift from the recorded inflow only by accumulated float rounding.
func (n *Network) CheckConservation() error {
	total, want := n.TotalFunds(), n.capitalIn
	tol := 1e-9 * (1 + want)
	if diff := total - want; diff > tol || diff < -tol {
		return fmt.Errorf("pcn: funds not conserved: have %v, expected %v (diff %v, tolerance %v)",
			total, want, total-want, tol)
	}
	return nil
}
