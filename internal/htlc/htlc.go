// Package htlc implements the hash time lock contract (HTLC) state machine
// that secures multi-hop payments in PCNs (§II-A): an intermediary can claim
// the funds locked for it on the upstream channel only by revealing the
// preimage it learned when paying downstream, and locks expire after a
// bounded time so funds cannot be held hostage.
package htlc

import (
	"crypto/sha256"
	"fmt"
)

// State of a contract.
type State int

// Contract states.
const (
	Pending State = iota + 1
	Settled
	Failed
	Expired
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Settled:
		return "settled"
	case Failed:
		return "failed"
	case Expired:
		return "expired"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Contract is one hash time locked conditional payment.
type Contract struct {
	Hash   [32]byte
	Amount float64
	// Expiry is the absolute simulation time after which the lock lapses.
	Expiry float64
	state  State
}

// NewPreimage derives a preimage from a payment identifier; tests and the
// simulator use deterministic preimages keyed by TU id.
func NewPreimage(id uint64) [32]byte {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(id >> (8 * i))
	}
	return sha256.Sum256(b[:])
}

// LockHash returns the hash lock for a preimage.
func LockHash(preimage [32]byte) [32]byte {
	return sha256.Sum256(preimage[:])
}

// NewContract offers a pending contract for the given amount, expiring at
// expiry. It returns the contract by value so a payment can hold its per-hop
// contracts in one slice.
func NewContract(hash [32]byte, amount, expiry float64) (Contract, error) {
	if amount <= 0 {
		return Contract{}, fmt.Errorf("htlc: amount must be positive, got %v", amount)
	}
	return Contract{Hash: hash, Amount: amount, Expiry: expiry, state: Pending}, nil
}

// State returns the current state.
func (c *Contract) State() State { return c.state }

// Settle claims the contract by revealing the preimage at time now. It
// fails if the preimage does not hash to the lock, if the contract is not
// pending, or if the lock has expired.
func (c *Contract) Settle(preimage [32]byte, now float64) error {
	if c.state != Pending {
		return fmt.Errorf("htlc: settle on %v contract", c.state)
	}
	if now > c.Expiry {
		c.state = Expired
		return fmt.Errorf("htlc: lock expired at %v (now %v)", c.Expiry, now)
	}
	if LockHash(preimage) != c.Hash {
		return fmt.Errorf("htlc: preimage does not match lock")
	}
	c.state = Settled
	return nil
}

// Fail cancels the contract cooperatively (e.g., downstream failure),
// releasing the locked funds back to the offerer.
func (c *Contract) Fail() error {
	if c.state != Pending {
		return fmt.Errorf("htlc: fail on %v contract", c.state)
	}
	c.state = Failed
	return nil
}

// ExpireIfDue transitions a pending contract to Expired when now is past
// the lock time. It reports whether the contract is (now) expired.
func (c *Contract) ExpireIfDue(now float64) bool {
	if c.state == Pending && now > c.Expiry {
		c.state = Expired
	}
	return c.state == Expired
}

// Chain is an ordered set of per-hop contracts for one multi-hop payment.
// Expiries must decrease along the path (each upstream hop needs time to
// claim after learning the preimage downstream).
type Chain struct {
	Hops []Contract
}

// NewChain creates per-hop contracts for a payment of `amount` over
// `hops` hops, starting from finalExpiry at the recipient and adding delta
// per upstream hop.
func NewChain(hash [32]byte, amount float64, hops int, finalExpiry, delta float64) (*Chain, error) {
	if hops < 1 {
		return nil, fmt.Errorf("htlc: chain needs >= 1 hop, got %d", hops)
	}
	if delta <= 0 {
		return nil, fmt.Errorf("htlc: delta must be positive, got %v", delta)
	}
	ch := &Chain{Hops: make([]Contract, hops)}
	for i := 0; i < hops; i++ {
		// Hop 0 is the sender's outgoing lock, the last hop pays the
		// recipient; later hops expire sooner.
		expiry := finalExpiry + float64(hops-1-i)*delta
		c, err := NewContract(hash, amount, expiry)
		if err != nil {
			return nil, err
		}
		ch.Hops[i] = c
	}
	return ch, nil
}

// SettleAll unwinds the chain from the recipient backwards with the
// preimage, as the real protocol does. All hops must settle for the
// payment to be atomic; the first failure aborts and fails the remaining
// (upstream) pending hops.
func (ch *Chain) SettleAll(preimage [32]byte, now float64) error {
	for i := len(ch.Hops) - 1; i >= 0; i-- {
		if err := ch.Hops[i].Settle(preimage, now); err != nil {
			for j := i; j >= 0; j-- {
				if ch.Hops[j].State() == Pending {
					// Cooperative unwind of the not-yet-settled hops.
					if ferr := ch.Hops[j].Fail(); ferr != nil {
						return fmt.Errorf("htlc: unwind: %w", ferr)
					}
				}
			}
			return fmt.Errorf("htlc: hop %d: %w", i, err)
		}
	}
	return nil
}

// Settled reports whether every hop settled.
func (ch *Chain) Settled() bool {
	for _, c := range ch.Hops {
		if c.State() != Settled {
			return false
		}
	}
	return true
}
