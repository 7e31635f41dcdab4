package htlc

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func TestOfferValidation(t *testing.T) {
	pre := NewPreimage(1)
	if _, err := NewContract(LockHash(pre), 0, 10); err == nil {
		t.Fatal("expected error for zero amount")
	}
	if _, err := NewContract(LockHash(pre), -5, 10); err == nil {
		t.Fatal("expected error for negative amount")
	}
}

func TestSettleHappyPath(t *testing.T) {
	pre := NewPreimage(7)
	c, err := NewContract(LockHash(pre), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != Pending {
		t.Fatalf("state = %v", c.State())
	}
	if err := c.Settle(pre, 9); err != nil {
		t.Fatal(err)
	}
	if c.State() != Settled {
		t.Fatalf("state = %v", c.State())
	}
}

func TestSettleWrongPreimage(t *testing.T) {
	c, err := NewContract(LockHash(NewPreimage(1)), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(NewPreimage(2), 5); err == nil {
		t.Fatal("wrong preimage settled")
	}
	if c.State() != Pending {
		t.Fatalf("failed settle should leave contract pending, got %v", c.State())
	}
}

func TestSettleAfterExpiry(t *testing.T) {
	pre := NewPreimage(3)
	c, err := NewContract(LockHash(pre), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(pre, 11); err == nil {
		t.Fatal("expired lock settled")
	}
	if c.State() != Expired {
		t.Fatalf("state = %v, want expired", c.State())
	}
}

func TestDoubleSettleRejected(t *testing.T) {
	pre := NewPreimage(4)
	c, err := NewContract(LockHash(pre), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(pre, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(pre, 2); err == nil {
		t.Fatal("double settle allowed")
	}
}

func TestFail(t *testing.T) {
	c, err := NewContract(LockHash(NewPreimage(5)), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(); err != nil {
		t.Fatal(err)
	}
	if c.State() != Failed {
		t.Fatalf("state = %v", c.State())
	}
	if err := c.Fail(); err == nil {
		t.Fatal("double fail allowed")
	}
}

func TestExpireIfDue(t *testing.T) {
	c, err := NewContract(LockHash(NewPreimage(6)), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.ExpireIfDue(9) {
		t.Fatal("expired early")
	}
	if !c.ExpireIfDue(10.5) {
		t.Fatal("did not expire when due")
	}
	if c.State() != Expired {
		t.Fatalf("state = %v", c.State())
	}
}

func TestPreimageDeterminism(t *testing.T) {
	if NewPreimage(42) != NewPreimage(42) {
		t.Fatal("preimages not deterministic")
	}
	if NewPreimage(1) == NewPreimage(2) {
		t.Fatal("distinct ids collided")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Pending: "pending", Settled: "settled", Failed: "failed", Expired: "expired"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

// settleBeforeRevealed is Contract.Settle as it was before settlement took a
// Revealed preimage: it hashes the preimage itself, after the state and
// expiry checks.
func settleBeforeRevealed(c *Contract, preimage [32]byte, now float64) error {
	if c.state != Pending {
		return fmt.Errorf("htlc: settle on %v contract", c.state)
	}
	if now > c.Expiry {
		c.state = Expired
		return fmt.Errorf("htlc: lock expired at %v (now %v)", c.Expiry, now)
	}
	if sha256.Sum256(preimage[:]) != c.Hash {
		return fmt.Errorf("htlc: preimage does not match lock")
	}
	c.state = Settled
	return nil
}

// TestRevealedSettleMatchesSettle: settling a Hops chain with a preimage
// hashed once by Reveal, and Contract.Settle (which reveals too), do
// exactly what hashing the preimage per contract did, from every state,
// before, at and after expiry, with the right and a wrong preimage.
func TestRevealedSettleMatchesSettle(t *testing.T) {
	const expiry = 10.0
	pre := NewPreimage(12)
	lock, err := NewLock(LockHash(pre), 5, expiry)
	if err != nil {
		t.Fatal(err)
	}
	// into drives a pending contract to the given state.
	into := map[State]func(c *Contract){
		Pending: func(*Contract) {},
		Settled: func(c *Contract) { c.state = Settled },
		Failed:  func(c *Contract) { _ = c.Fail() },
		Expired: func(c *Contract) { c.ExpireIfDue(expiry + 1) },
	}
	for _, from := range []State{Pending, Settled, Failed, Expired} {
		for _, now := range []float64{expiry - 1, expiry, expiry + 1} {
			for _, p := range [][32]byte{pre, NewPreimage(13)} {
				ref, err := NewContract(lock.Hash, lock.Amount, lock.Expiry)
				if err != nil {
					t.Fatal(err)
				}
				into[from](&ref)
				if ref.State() != from {
					t.Fatalf("setup reached %v, want %v", ref.State(), from)
				}
				settled, hops := ref, NewHops(nil)
				hops.Lock = lock
				hops.Offer()
				hops.states[0] = from

				wantErr := settleBeforeRevealed(&ref, p, now)
				errs := []error{settled.Settle(p, now), hops.Settle(0, Reveal(p), now)}
				states := []State{settled.State(), hops.State(0)}
				for i, path := range []string{"Contract.Settle", "Hops.Settle"} {
					if fmt.Sprint(errs[i]) != fmt.Sprint(wantErr) || states[i] != ref.State() {
						t.Errorf("from %v at %v (right preimage %v): %s gave %v → %v, hashing per contract gave %v → %v",
							from, now, p == pre, path, errs[i], states[i], wantErr, ref.State())
					}
				}
			}
		}
	}
}

// TestHopsWrongPreimageSettlesNoHop: a wrong preimage opens no hop of a
// chain; the right one then settles every hop, and Fail and Reset behave as
// on contracts.
func TestHopsWrongPreimageSettlesNoHop(t *testing.T) {
	pre := NewPreimage(14)
	lock, err := NewLock(LockHash(pre), 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	hops := NewHops(make([]State, 0, 2)) // a third hop outgrows the buffer
	hops.Lock = lock
	for i := 0; i < 3; i++ {
		hops.Offer()
	}
	wrong := Reveal(NewPreimage(15))
	for i := hops.Len() - 1; i >= 0; i-- {
		if err := hops.Settle(i, wrong, 5); err == nil {
			t.Fatalf("hop %d settled with a wrong preimage", i)
		}
		if hops.State(i) != Pending {
			t.Fatalf("hop %d left %v by a wrong preimage, want pending", i, hops.State(i))
		}
	}
	right := Reveal(pre)
	for i := hops.Len() - 1; i >= 0; i-- {
		if err := hops.Settle(i, right, 5); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
	}
	if err := hops.Fail(0); err == nil {
		t.Fatal("failed a settled hop")
	}
	hops.Reset()
	hops.Offer()
	if hops.Len() != 1 || hops.State(0) != Pending {
		t.Fatalf("after Reset and one Offer: %d hops, hop 0 %v", hops.Len(), hops.State(0))
	}
	if err := hops.Fail(0); err != nil || hops.State(0) != Failed {
		t.Fatalf("Fail on a pending hop: %v, state %v", err, hops.State(0))
	}
	if _, err := NewLock(lock.Hash, 0, 10); err == nil {
		t.Fatal("lock with zero amount accepted")
	}
}
