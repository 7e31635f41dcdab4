package channel

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/splicer-pcn/splicer/internal/rng"
)

func newChan(t *testing.T, fwd, rev float64) *Channel {
	t.Helper()
	c, err := New(0, 1, 2, fwd, rev)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, 2, -1, 5); err == nil {
		t.Fatal("negative balance accepted")
	}
}

func TestDirFrom(t *testing.T) {
	c := newChan(t, 10, 10)
	if c.DirFrom(1) != Fwd || c.DirFrom(2) != Rev {
		t.Fatal("DirFrom wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-endpoint")
		}
	}()
	c.DirFrom(9)
}

func TestLockSettleMovesFunds(t *testing.T) {
	c := newChan(t, 10, 5)
	if err := c.Lock(Fwd, 4); err != nil {
		t.Fatal(err)
	}
	if c.Balance(Fwd) != 6 || c.dirs[Fwd].locked != 4 {
		t.Fatalf("after lock: bal=%v locked=%v", c.Balance(Fwd), c.dirs[Fwd].locked)
	}
	if err := c.Settle(Fwd, 4); err != nil {
		t.Fatal(err)
	}
	if c.Balance(Fwd) != 6 || c.Balance(Rev) != 9 || c.dirs[Fwd].locked != 0 {
		t.Fatalf("after settle: fwd=%v rev=%v", c.Balance(Fwd), c.Balance(Rev))
	}
	// Total funds conserved.
	if math.Abs(c.Capacity()-15) > 1e-9 {
		t.Fatalf("capacity = %v", c.Capacity())
	}
}

func TestLockRefundRestores(t *testing.T) {
	c := newChan(t, 10, 5)
	if err := c.Lock(Fwd, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Refund(Fwd, 4); err != nil {
		t.Fatal(err)
	}
	if c.Balance(Fwd) != 10 || c.dirs[Fwd].locked != 0 || c.Balance(Rev) != 5 {
		t.Fatal("refund did not restore state")
	}
}

func TestLockInsufficient(t *testing.T) {
	c := newChan(t, 3, 3)
	if err := c.Lock(Fwd, 5); err == nil {
		t.Fatal("overdraft lock accepted")
	}
	if err := c.Lock(Fwd, 0); err == nil {
		t.Fatal("zero lock accepted")
	}
}

func TestSettleRefundValidation(t *testing.T) {
	c := newChan(t, 10, 10)
	if err := c.Settle(Fwd, 1); err == nil {
		t.Fatal("settle without lock accepted")
	}
	if err := c.Refund(Fwd, 1); err == nil {
		t.Fatal("refund without lock accepted")
	}
}

func TestProcessRateLimit(t *testing.T) {
	c := newChan(t, 100, 100)
	c.ProcessRate = 10
	if !c.CanForward(Fwd, 8) {
		t.Fatal("should forward under rate")
	}
	if err := c.Lock(Fwd, 8); err != nil {
		t.Fatal(err)
	}
	if c.CanForward(Fwd, 5) {
		t.Fatal("rate limit not enforced")
	}
	// The reverse direction has its own budget.
	if !c.CanForward(Rev, 5) {
		t.Fatal("rate limit leaked across directions")
	}
	// Window reset restores the budget.
	c.UpdatePrices(0, 0)
	if !c.CanForward(Fwd, 5) {
		t.Fatal("rate budget not reset")
	}
}

func TestPriceDynamics(t *testing.T) {
	c := newChan(t, 50, 50)
	// Demand far above capacity raises λ.
	c.AddRequired(Fwd, 120)
	c.AddRequired(Rev, 30)
	c.UpdatePrices(0.01, 0.01)
	if c.lambda <= 0 {
		t.Fatal("lambda did not rise under excess demand")
	}
	// One-sided arrivals raise μ for that direction and keep the other at 0.
	if err := c.Lock(Fwd, 20); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(Fwd, 20); err != nil {
		t.Fatal(err)
	}
	c.UpdatePrices(0.01, 0.01)
	if c.dirs[Fwd].mu <= 0 {
		t.Fatalf("mu fwd = %v, want > 0", c.dirs[Fwd].mu)
	}
	if c.dirs[Rev].mu != 0 {
		t.Fatalf("mu rev = %v, want 0", c.dirs[Rev].mu)
	}
	// Price in the hot direction must exceed the cold direction (eq. 23).
	if c.Price(Fwd) <= c.Price(Rev) {
		t.Fatalf("price fwd %v <= rev %v", c.Price(Fwd), c.Price(Rev))
	}
}

func TestLambdaDecaysWhenUnderused(t *testing.T) {
	c := newChan(t, 50, 50)
	c.AddRequired(Fwd, 500)
	c.UpdatePrices(0.01, 0)
	high := c.lambda
	// No demand now: λ decreases (and never below 0).
	c.UpdatePrices(0.01, 0)
	if c.lambda >= high {
		t.Fatal("lambda did not decay")
	}
	for i := 0; i < 100; i++ {
		c.UpdatePrices(0.01, 0)
	}
	if c.lambda < 0 {
		t.Fatal("lambda went negative")
	}
}

func TestFee(t *testing.T) {
	c := newChan(t, 10, 10)
	c.AddRequired(Fwd, 100)
	c.UpdatePrices(0.05, 0)
	if c.Fee(Fwd, 0.1) <= 0 {
		t.Fatal("fee should be positive when price is")
	}
	if math.Abs(c.Fee(Fwd, 0.1)-0.1*c.Price(Fwd)) > 1e-12 {
		t.Fatal("fee != T_fee * price")
	}
}

func TestQueueBasics(t *testing.T) {
	c := newChan(t, 10, 10)
	c.QueueLimit = 10
	mk := func(id uint64, v float64) *QueuedTU {
		return &QueuedTU{ID: id, Value: v, Deadline: 100, Enqueued: 0}
	}
	if err := c.Enqueue(Fwd, mk(1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Enqueue(Fwd, mk(2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Enqueue(Fwd, mk(3, 4)); err == nil {
		t.Fatal("queue limit not enforced")
	}
	if c.QueueLen(Fwd) != 2 || c.QueueValue(Fwd) != 8 {
		t.Fatalf("len=%d val=%v", c.QueueLen(Fwd), c.QueueValue(Fwd))
	}
	if c.QueueLen(Rev) != 0 {
		t.Fatal("queue leaked across directions")
	}
}

func TestEnqueueValidation(t *testing.T) {
	c := newChan(t, 10, 10)
	if err := c.Enqueue(Fwd, nil); err == nil {
		t.Fatal("nil TU accepted")
	}
	if err := c.Enqueue(Fwd, &QueuedTU{Value: 0}); err == nil {
		t.Fatal("zero-value TU accepted")
	}
}

func TestSchedulers(t *testing.T) {
	q := []*QueuedTU{
		{ID: 1, Value: 5, Deadline: 30, Enqueued: 0},
		{ID: 2, Value: 1, Deadline: 10, Enqueued: 1},
		{ID: 3, Value: 3, Deadline: 20, Enqueued: 2},
	}
	cases := []struct {
		s    Scheduler
		want uint64
	}{
		{FIFO{}, 1},
		{LIFO{}, 3},
		{SPF{}, 2},
		{EDF{}, 2},
	}
	for _, c := range cases {
		if got := q[c.s.Next(q)].ID; got != c.want {
			t.Fatalf("%s picked %d, want %d", c.s.Name(), got, c.want)
		}
	}
}

func TestSchedulerByName(t *testing.T) {
	for _, name := range []string{"FIFO", "LIFO", "SPF", "EDF"} {
		s, err := SchedulerByName(name)
		if err != nil || s.Name() != name {
			t.Fatalf("SchedulerByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := SchedulerByName("BOGUS"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestDequeueWithScheduler(t *testing.T) {
	c := newChan(t, 10, 10)
	for i := uint64(1); i <= 3; i++ {
		if err := c.Enqueue(Fwd, &QueuedTU{ID: i, Value: float64(i), Deadline: 100}); err != nil {
			t.Fatal(err)
		}
	}
	tu := c.Dequeue(Fwd, LIFO{})
	if tu.ID != 3 {
		t.Fatalf("LIFO dequeued %d", tu.ID)
	}
	if c.QueueLen(Fwd) != 2 {
		t.Fatalf("queue len = %d", c.QueueLen(Fwd))
	}
	if c.Dequeue(Rev, FIFO{}) != nil {
		t.Fatal("dequeue on empty queue returned TU")
	}
}

func TestMarkStale(t *testing.T) {
	c := newChan(t, 10, 10)
	tu1 := &QueuedTU{ID: 1, Value: 1, Deadline: 100, Enqueued: 0}
	tu2 := &QueuedTU{ID: 2, Value: 1, Deadline: 100, Enqueued: 5}
	if err := c.Enqueue(Fwd, tu1); err != nil {
		t.Fatal(err)
	}
	if err := c.Enqueue(Fwd, tu2); err != nil {
		t.Fatal(err)
	}
	buf := make([]*QueuedTU, 0, 4)
	marked := c.MarkStale(Fwd, 5.5, 0.4, buf) // tu1 waited 5.5 > 0.4, tu2 only 0.5 > 0.4 too
	if len(marked) != 2 || marked[0] != tu1 || marked[1] != tu2 {
		t.Fatalf("marked %v, want tu1, tu2 in queue order", marked)
	}
	if &marked[0] != &buf[:1][0] {
		t.Fatal("MarkStale did not append into the caller's buffer")
	}
	// A reused buffer: the second call returns nothing (already marked) and
	// allocates nothing.
	tu3 := &QueuedTU{ID: 3, Value: 1, Deadline: 100, Enqueued: 5.8}
	if err := c.Enqueue(Fwd, tu3); err != nil {
		t.Fatal(err)
	}
	if again := c.MarkStale(Fwd, 6, 0.4, marked[:0]); len(again) != 0 {
		t.Fatal("re-marked TUs")
	}
	if allocs := testing.AllocsPerRun(10, func() { marked = c.MarkStale(Fwd, 6, 0.4, marked[:0]) }); allocs != 0 {
		t.Fatalf("MarkStale into a reused buffer allocated %v times", allocs)
	}
	// Appending keeps what the buffer already holds.
	if got := c.MarkStale(Fwd, 7, 0.4, marked[:0]); len(got) != 1 || got[0] != tu3 {
		t.Fatalf("marked %v, want tu3 alone", got)
	}
	if got := c.MarkStale(Fwd, 7, 0.4, []*QueuedTU{tu1}); len(got) != 1 || got[0] != tu1 {
		t.Fatalf("appending to a non-empty buffer gave %v", got)
	}
}

func TestRemoveQueued(t *testing.T) {
	c := newChan(t, 10, 10)
	tu := &QueuedTU{ID: 1, Value: 1, Deadline: 100}
	if err := c.Enqueue(Fwd, tu); err != nil {
		t.Fatal(err)
	}
	if !c.RemoveQueued(Fwd, tu) {
		t.Fatal("RemoveQueued failed")
	}
	if c.RemoveQueued(Fwd, tu) {
		t.Fatal("double remove succeeded")
	}
}

func TestImbalance(t *testing.T) {
	c := newChan(t, 10, 10)
	if c.Imbalance() != 0 {
		t.Fatalf("balanced channel imbalance = %v", c.Imbalance())
	}
	if err := c.Lock(Fwd, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(Fwd, 10); err != nil {
		t.Fatal(err)
	}
	// Now fwd=0, rev=20 → imbalance 1.
	if math.Abs(c.Imbalance()-1) > 1e-9 {
		t.Fatalf("imbalance = %v, want 1", c.Imbalance())
	}
}

func TestPropertyConservation(t *testing.T) {
	// Random lock/settle/refund sequences conserve total channel funds and
	// never drive balances negative.
	f := func(seed uint64) bool {
		src := rng.New(seed)
		c, err := New(0, 1, 2, 100, 100)
		if err != nil {
			return false
		}
		type pending struct {
			d Direction
			v float64
		}
		var locks []pending
		for step := 0; step < 200; step++ {
			switch src.IntN(3) {
			case 0:
				d := Direction(src.IntN(2))
				v := src.Float64()*30 + 0.1
				if c.Lock(d, v) == nil {
					locks = append(locks, pending{d, v})
				}
			case 1:
				if len(locks) > 0 {
					i := src.IntN(len(locks))
					if err := c.Settle(locks[i].d, locks[i].v); err != nil {
						return false
					}
					locks = append(locks[:i], locks[i+1:]...)
				}
			case 2:
				if len(locks) > 0 {
					i := src.IntN(len(locks))
					if err := c.Refund(locks[i].d, locks[i].v); err != nil {
						return false
					}
					locks = append(locks[:i], locks[i+1:]...)
				}
			}
			if c.Balance(Fwd) < -1e-9 || c.Balance(Rev) < -1e-9 {
				return false
			}
			if math.Abs(c.Capacity()-200) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLockToleratesFloatDrift(t *testing.T) {
	// A lock value a few ulps above the balance (accumulated TU-splitting
	// drift) must succeed under the same 1e-9 tolerance Settle/Refund use.
	c := newChan(t, 0.3, 1)
	tenth := 0.1 // runtime value: constant folding would give exactly 0.3
	v := tenth + tenth + tenth
	if v <= 0.3 {
		t.Fatal("test premise: v must exceed the balance by an ulp")
	}
	if !c.CanForward(Fwd, v) {
		t.Fatalf("CanForward rejected %v against balance 0.3: drifted TUs would stall queued", v)
	}
	before := c.Capacity()
	if err := c.Lock(Fwd, v); err != nil {
		t.Fatalf("Lock rejected %v against balance 0.3: %v", v, err)
	}
	if b := c.Balance(Fwd); b < 0 {
		t.Fatalf("tolerance drove balance negative: %v", b)
	}
	if l := c.dirs[Fwd].locked; math.Abs(l-v) > 1e-9 {
		t.Fatalf("locked %v, want %v within tolerance", l, v)
	}
	// The locked funds settle cleanly, and the tolerance must not mint or
	// destroy funds anywhere along the way.
	if err := c.Settle(Fwd, v); err != nil {
		t.Fatal(err)
	}
	if after := c.Capacity(); math.Abs(after-before) > 1e-12 {
		t.Fatalf("drift-tolerant lock/settle changed total funds: %v -> %v", before, after)
	}
}

func TestLockBeyondToleranceRejected(t *testing.T) {
	c := newChan(t, 10, 10)
	if err := c.Lock(Fwd, 10.001); err == nil {
		t.Fatal("Lock accepted a value 1e-3 over the balance")
	}
	if c.Balance(Fwd) != 10 || c.dirs[Fwd].locked != 0 {
		t.Fatalf("failed lock mutated state: balance %v locked %v", c.Balance(Fwd), c.dirs[Fwd].locked)
	}
}

func TestLockEnforcesProcessRate(t *testing.T) {
	// Lock must enforce the rate limit itself: CanForward is advisory and
	// callers must not be able to bypass r_process.
	c := newChan(t, 100, 100)
	c.ProcessRate = 10
	if err := c.Lock(Fwd, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(Fwd, 8); err == nil {
		t.Fatal("Lock exceeded ProcessRate without CanForward guarding it")
	}
	// The reverse direction has its own budget.
	if err := c.Lock(Rev, 8); err != nil {
		t.Fatal(err)
	}
	// The window reset restores the budget.
	c.UpdatePrices(0, 0)
	if err := c.Lock(Fwd, 8); err != nil {
		t.Fatalf("rate budget not reset: %v", err)
	}
}

func TestCanForwardImpliesLock(t *testing.T) {
	// Whenever CanForward approves a value, Lock must accept it: the seed's
	// asymmetry let queue-drained TUs pass the check and then fail the lock.
	c := newChan(t, 25, 25)
	c.ProcessRate = 12
	for _, v := range []float64{1, 4, 11.9999999999, 12} {
		if !c.CanForward(Fwd, v) {
			continue
		}
		if err := c.Lock(Fwd, v); err != nil {
			t.Fatalf("CanForward approved %v but Lock failed: %v", v, err)
		}
		if err := c.Refund(Fwd, v); err != nil {
			t.Fatal(err)
		}
		c.UpdatePrices(0, 0)
	}
}
