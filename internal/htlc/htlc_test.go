package htlc

import (
	"strings"
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

func TestChainExpiryOrdering(t *testing.T) {
	pre := NewPreimage(9)
	ch, err := NewChain(LockHash(pre), 3, 4, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Expiries decrease along the path: hop 0 (sender side) latest.
	for i := 1; i < len(ch.Hops); i++ {
		if ch.Hops[i].Expiry >= ch.Hops[i-1].Expiry {
			t.Fatalf("expiries not decreasing: hop %d %v >= hop %d %v",
				i, ch.Hops[i].Expiry, i-1, ch.Hops[i-1].Expiry)
		}
	}
	if ch.Hops[3].Expiry != 10 {
		t.Fatalf("recipient hop expiry = %v, want 10", ch.Hops[3].Expiry)
	}
}

func TestChainSettleAll(t *testing.T) {
	pre := NewPreimage(10)
	ch, err := NewChain(LockHash(pre), 2, 3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.SettleAll(pre, 5); err != nil {
		t.Fatal(err)
	}
	if !ch.Settled() {
		t.Fatal("chain not fully settled")
	}
}

func TestChainSettleAllLateUnwinds(t *testing.T) {
	pre := NewPreimage(11)
	ch, err := NewChain(LockHash(pre), 2, 3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Recipient hop expires at 10; settle attempt at 10.5 fails and
	// unwinds.
	err = ch.SettleAll(pre, 10.5)
	if err == nil {
		t.Fatal("late settle succeeded")
	}
	if !strings.Contains(err.Error(), "expired") {
		t.Fatalf("unexpected error: %v", err)
	}
	if ch.Settled() {
		t.Fatal("chain reports settled after failure")
	}
	// Upstream hops must not remain pending.
	for i, c := range ch.Hops {
		if c.State() == Pending {
			t.Fatalf("hop %d left pending", i)
		}
	}
}

func TestChainValidation(t *testing.T) {
	if _, err := NewChain(LockHash(NewPreimage(1)), 1, 0, 10, 1); err == nil {
		t.Fatal("expected error for 0 hops")
	}
	if _, err := NewChain(LockHash(NewPreimage(1)), 1, 2, 10, 0); err == nil {
		t.Fatal("expected error for zero delta")
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
