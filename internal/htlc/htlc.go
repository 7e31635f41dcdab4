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
type State uint8

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

// Lock is the condition of a hash time locked payment: the hash lock, the
// amount, and the absolute simulation time after which the lock lapses.
type Lock struct {
	Hash   [32]byte
	Amount float64
	Expiry float64
}

// NewLock validates and returns a lock.
func NewLock(hash [32]byte, amount, expiry float64) (Lock, error) {
	if amount <= 0 {
		return Lock{}, fmt.Errorf("htlc: amount must be positive, got %v", amount)
	}
	return Lock{Hash: hash, Amount: amount, Expiry: expiry}, nil
}

// Revealed is a preimage as a settling hop checks it: its lock hash,
// computed once when the preimage is revealed, so each hop compares 32
// bytes instead of hashing the same preimage again.
type Revealed [32]byte

// Reveal hashes a preimage for settlement.
func Reveal(preimage [32]byte) Revealed { return Revealed(LockHash(preimage)) }

// settle moves *st from Pending to Settled when r opens l at time now. It
// fails if the contract is not pending, if the lock has expired (moving it
// to Expired), or if the preimage does not match the lock (leaving it
// pending).
func (l *Lock) settle(st *State, r Revealed, now float64) error {
	if *st != Pending {
		return fmt.Errorf("htlc: settle on %v contract", *st)
	}
	if now > l.Expiry {
		*st = Expired
		return fmt.Errorf("htlc: lock expired at %v (now %v)", l.Expiry, now)
	}
	if [32]byte(r) != l.Hash {
		return fmt.Errorf("htlc: preimage does not match lock")
	}
	*st = Settled
	return nil
}

// fail moves *st from Pending to Failed.
func fail(st *State) error {
	if *st != Pending {
		return fmt.Errorf("htlc: fail on %v contract", *st)
	}
	*st = Failed
	return nil
}

// Contract is one hash time locked conditional payment.
type Contract struct {
	Lock
	state State
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
	lock, err := NewLock(hash, amount, expiry)
	if err != nil {
		return Contract{}, err
	}
	return Contract{Lock: lock, state: Pending}, nil
}

// State returns the current state.
func (c *Contract) State() State { return c.state }

// Settle claims the contract by revealing the preimage at time now. It
// fails if the preimage does not hash to the lock, if the contract is not
// pending, or if the lock has expired.
func (c *Contract) Settle(preimage [32]byte, now float64) error {
	return c.settle(&c.state, Reveal(preimage), now)
}

// Fail cancels the contract cooperatively (e.g., downstream failure),
// releasing the locked funds back to the offerer.
func (c *Contract) Fail() error { return fail(&c.state) }

// ExpireIfDue transitions a pending contract to Expired when now is past
// the lock time. It reports whether the contract is (now) expired.
func (c *Contract) ExpireIfDue(now float64) bool {
	if c.state == Pending && now > c.Expiry {
		c.state = Expired
	}
	return c.state == Expired
}

// Hops is the contract chain of one transaction unit in the simulator:
// every hop locks the same Lock (the unit's hash, amount and deadline), so
// the lock is stored once and a hop holds only its state. The states live
// in a buffer the caller provides, so a payment can carve the chains of all
// its units out of one allocation; a chain that outgrows its buffer (a
// retry onto a longer path) reallocates once.
type Hops struct {
	Lock   Lock
	states []State
}

// NewHops returns an empty chain whose hop states fill buf's capacity.
func NewHops(buf []State) Hops { return Hops{states: buf[:0]} }

// Len returns the number of hops offered.
func (h *Hops) Len() int { return len(h.states) }

// Offer locks the next hop: a pending contract under h.Lock.
func (h *Hops) Offer() { h.states = append(h.states, Pending) }

// State returns hop i's state.
func (h *Hops) State(i int) State { return h.states[i] }

// Settle claims hop i with a revealed preimage at time now, exactly as
// Contract.Settle claims a contract holding h.Lock and hop i's state.
func (h *Hops) Settle(i int, r Revealed, now float64) error {
	return h.Lock.settle(&h.states[i], r, now)
}

// Fail cancels hop i, as Contract.Fail.
func (h *Hops) Fail(i int) error { return fail(&h.states[i]) }

// Reset drops every hop, keeping the buffer and the lock.
func (h *Hops) Reset() { h.states = h.states[:0] }
