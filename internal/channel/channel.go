// Package channel models a bidirectional payment channel at the granularity
// Splicer's routing protocol needs: independent per-direction balances,
// HTLC-style locking of in-flight transaction-units, the capacity price λ
// and imbalance prices μ of §IV-D (eqs. 21-23), a bounded waiting queue with
// pluggable scheduling (Table II: FIFO/LIFO/SPF/EDF), and a per-direction
// processing-rate limit r_process.
package channel

import (
	"fmt"
	"math"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// Direction selects one side of a channel: 0 routes U→V, 1 routes V→U.
type Direction int

// Directions.
const (
	Fwd Direction = 0
	Rev Direction = 1
)

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction { return 1 - d }

// QueuedTU is a transaction-unit waiting in a channel queue.
type QueuedTU struct {
	ID       uint64
	Value    float64
	Deadline float64 // absolute sim time the parent payment expires
	Enqueued float64 // when it entered this queue
	Marked   bool    // congestion mark (queueing delay exceeded T)
	// Owner is the forwarder's record of the TU, opaque to the channel: it
	// leads whoever dequeues the entry back to the TU.
	Owner any
}

// Scheduler orders a channel's waiting queue. Given the queue contents it
// returns the index of the TU to serve next. Implementations must not
// mutate the slice.
type Scheduler interface {
	Name() string
	Next(queue []*QueuedTU) int
}

// FIFO serves the oldest TU first.
type FIFO struct{}

// Name implements Scheduler.
func (FIFO) Name() string { return "FIFO" }

// Next implements Scheduler.
func (FIFO) Next(q []*QueuedTU) int { return 0 }

// LIFO serves the newest TU first — the paper's best performer: it
// prioritizes transactions far from their deadlines.
type LIFO struct{}

// Name implements Scheduler.
func (LIFO) Name() string { return "LIFO" }

// Next implements Scheduler.
func (LIFO) Next(q []*QueuedTU) int { return len(q) - 1 }

// SPF serves the smallest payment first.
type SPF struct{}

// Name implements Scheduler.
func (SPF) Name() string { return "SPF" }

// Next implements Scheduler.
func (SPF) Next(q []*QueuedTU) int {
	best := 0
	for i, tu := range q {
		if tu.Value < q[best].Value {
			best = i
		}
	}
	return best
}

// EDF serves the earliest deadline first.
type EDF struct{}

// Name implements Scheduler.
func (EDF) Name() string { return "EDF" }

// Next implements Scheduler.
func (EDF) Next(q []*QueuedTU) int {
	best := 0
	for i, tu := range q {
		if tu.Deadline < q[best].Deadline {
			best = i
		}
	}
	return best
}

// SchedulerByName returns the named scheduler (FIFO, LIFO, SPF, EDF).
func SchedulerByName(name string) (Scheduler, error) {
	switch name {
	case "FIFO":
		return FIFO{}, nil
	case "LIFO":
		return LIFO{}, nil
	case "SPF":
		return SPF{}, nil
	case "EDF":
		return EDF{}, nil
	default:
		return nil, fmt.Errorf("channel: unknown scheduler %q", name)
	}
}

// dirState is the per-direction mutable state.
type dirState struct {
	balance  float64 // spendable funds in this direction
	locked   float64 // in-flight (HTLC-locked) funds
	arrived  float64 // value that entered in this direction this window (m_a)
	required float64 // funds required to sustain current rates (n_a)
	mu       float64 // imbalance price μ for this direction
	queue    []*QueuedTU
}

// Channel is one payment channel's full routing state.
type Channel struct {
	Edge graph.EdgeID
	U, V graph.NodeID

	dirs [2]dirState

	lambda float64 // capacity price λ (one per channel, eq. 21)

	// ProcessRate bounds the value/second each direction can forward
	// (r_process in Alg. 2 line 10); 0 means unlimited.
	ProcessRate float64
	// QueueLimit bounds the total value waiting per direction (the paper
	// sets 8000 tokens); 0 means unlimited.
	QueueLimit float64
	// MaxInFlight bounds the number of simultaneously locked (in-flight)
	// HTLCs per direction — Lightning's max_accepted_htlcs slot limit, the
	// resource slot-jamming attacks exhaust; 0 means unlimited.
	MaxInFlight int

	processed [2]float64 // value forwarded this window, for rate limiting
	inflight  [2]int     // locked HTLC count per direction, for MaxInFlight
	closed    bool
}

// New creates a channel with the given initial per-direction balances.
func New(edge graph.EdgeID, u, v graph.NodeID, balFwd, balRev float64) (*Channel, error) {
	if balFwd < 0 || balRev < 0 {
		return nil, fmt.Errorf("channel: negative balance")
	}
	c := &Channel{Edge: edge, U: u, V: v}
	c.dirs[Fwd].balance = balFwd
	c.dirs[Rev].balance = balRev
	return c, nil
}

// DirFrom maps an origin node to a direction. It panics if from is not an
// endpoint.
func (c *Channel) DirFrom(from graph.NodeID) Direction {
	switch from {
	case c.U:
		return Fwd
	case c.V:
		return Rev
	default:
		panic(fmt.Sprintf("channel: node %d not an endpoint of edge %d", from, c.Edge))
	}
}

// Balance returns the spendable funds in direction d.
func (c *Channel) Balance(d Direction) float64 { return c.dirs[d].balance }

// Capacity returns the channel's total funds (both balances plus locked).
func (c *Channel) Capacity() float64 {
	return c.dirs[0].balance + c.dirs[1].balance + c.dirs[0].locked + c.dirs[1].locked
}

// Close marks the channel closed (the on-chain closing transaction is
// broadcast): no new forwards can be locked, but already-locked HTLCs remain
// settleable/refundable — exactly the guarantee the HTLC contract enforces
// on-chain. Idempotent.
func (c *Channel) Close() { c.closed = true }

// Closed reports whether the channel has been closed.
func (c *Channel) Closed() bool { return c.closed }

// Deposit adds spendable funds to direction d (a top-up / splice-in). It
// fails on closed channels and negative amounts.
func (c *Channel) Deposit(d Direction, v float64) error {
	if c.closed {
		return fmt.Errorf("channel: deposit on closed channel %d", c.Edge)
	}
	if v < 0 {
		return fmt.Errorf("channel: negative deposit %v", v)
	}
	c.dirs[d].balance += v
	return nil
}

// Rebalance moves `fraction` of the spendable-balance gap from the richer
// side to the poorer side (an off-chain circular rebalancing / submarine
// swap, abstracted to its effect). It returns the amount moved; 0 when the
// channel is closed, balanced, or fraction is not in (0, 1].
func (c *Channel) Rebalance(fraction float64) float64 {
	if c.closed || fraction <= 0 || fraction > 1 {
		return 0
	}
	gap := c.dirs[Fwd].balance - c.dirs[Rev].balance
	rich, poor := Fwd, Rev
	if gap < 0 {
		gap, rich, poor = -gap, Rev, Fwd
	}
	// Move toward equality: half the gap closes it completely.
	moved := fraction * gap / 2
	c.dirs[rich].balance -= moved
	c.dirs[poor].balance += moved
	return moved
}

// CanForward reports whether value v can currently be locked in direction d
// under both the balance and the processing-rate constraint. It applies the
// same 1e-9 tolerance as Lock (and Settle/Refund), so a TU whose value
// drifted a few ulps above the balance is forwarded rather than stalling in
// the queue until its deadline. Closed channels never forward.
func (c *Channel) CanForward(d Direction, v float64) bool {
	if c.closed {
		return false
	}
	if c.dirs[d].balance < v-1e-9 {
		return false
	}
	if c.ProcessRate > 0 && c.processed[d]+v > c.ProcessRate+1e-9 {
		return false
	}
	if c.MaxInFlight > 0 && c.inflight[d] >= c.MaxInFlight {
		return false
	}
	return true
}

// Lock reserves value v in direction d (an HTLC offer). The funds leave the
// spendable balance until Settle or Refund.
//
// Lock applies the same 1e-9 tolerance Settle and Refund use, so a TU whose
// value drifted a few ulps above the balance (repeated TU splitting and
// refunds accumulate float error) cannot pass CanForward and then fail
// here. It also enforces ProcessRate itself: CanForward is advisory and
// callers must not be able to exceed the per-window rate limit by skipping
// it.
func (c *Channel) Lock(d Direction, v float64) error {
	if c.closed {
		return fmt.Errorf("channel: lock on closed channel %d", c.Edge)
	}
	if v <= 0 {
		return fmt.Errorf("channel: lock value must be positive, got %v", v)
	}
	if c.dirs[d].balance < v-1e-9 {
		return fmt.Errorf("channel: insufficient funds in direction %d: have %v, need %v", d, c.dirs[d].balance, v)
	}
	if c.ProcessRate > 0 && c.processed[d]+v > c.ProcessRate+1e-9 {
		return fmt.Errorf("channel: rate limit %v exceeded in direction %d: processed %v, lock %v", c.ProcessRate, d, c.processed[d], v)
	}
	if c.MaxInFlight > 0 && c.inflight[d] >= c.MaxInFlight {
		return fmt.Errorf("channel: HTLC slots exhausted in direction %d: %d in flight, limit %d", d, c.inflight[d], c.MaxInFlight)
	}
	// Move exactly what the balance holds (the tolerance covers at most a
	// 1e-9 shortfall): deducting the full v and clamping would mint funds.
	moved := min(v, c.dirs[d].balance)
	c.dirs[d].balance -= moved
	c.dirs[d].locked += moved
	c.processed[d] += v
	c.inflight[d]++
	return nil
}

// Settle completes a locked forward: the value moves to the other side's
// spendable balance (receiver can now spend it back), and the arrival is
// recorded for the imbalance price update. Like Lock, it moves exactly what
// the locked bucket holds when the 1e-9 tolerance absorbed a drift
// shortfall, so total channel funds are conserved exactly.
func (c *Channel) Settle(d Direction, v float64) error {
	if v <= 0 || c.dirs[d].locked < v-1e-9 {
		return fmt.Errorf("channel: settle %v exceeds locked %v", v, c.dirs[d].locked)
	}
	moved := min(v, c.dirs[d].locked)
	c.dirs[d].locked -= moved
	c.dirs[d.Reverse()].balance += moved
	c.dirs[d].arrived += moved
	if c.inflight[d] > 0 {
		c.inflight[d]--
	}
	return nil
}

// Refund aborts a locked forward, returning the funds to the sender side.
// It conserves funds exactly the way Settle does.
func (c *Channel) Refund(d Direction, v float64) error {
	if v <= 0 || c.dirs[d].locked < v-1e-9 {
		return fmt.Errorf("channel: refund %v exceeds locked %v", v, c.dirs[d].locked)
	}
	moved := min(v, c.dirs[d].locked)
	c.dirs[d].locked -= moved
	c.dirs[d].balance += moved
	if c.inflight[d] > 0 {
		c.inflight[d]--
	}
	return nil
}

// AddRequired records funds required to maintain flow rates through the
// endpoint on direction d (n_a in eq. 21); accumulated per window.
func (c *Channel) AddRequired(d Direction, v float64) {
	c.dirs[d].required += v
}

// UpdatePrices applies eqs. 21-22 for one τ window and resets the window
// statistics. κ controls the capacity-price step, η the imbalance step.
// Prices are clamped at zero from below.
func (c *Channel) UpdatePrices(kappa, eta float64) {
	nA := c.dirs[Fwd].required
	nB := c.dirs[Rev].required
	cap := c.Capacity()
	c.lambda += kappa * (nA + nB - cap)
	if c.lambda < 0 {
		c.lambda = 0
	}
	mA := c.dirs[Fwd].arrived
	mB := c.dirs[Rev].arrived
	c.dirs[Fwd].mu += eta * (mA - mB)
	if c.dirs[Fwd].mu < 0 {
		c.dirs[Fwd].mu = 0
	}
	c.dirs[Rev].mu += eta * (mB - mA)
	if c.dirs[Rev].mu < 0 {
		c.dirs[Rev].mu = 0
	}
	for d := range c.dirs {
		c.dirs[d].arrived = 0
		c.dirs[d].required = 0
	}
	c.processed[0] = 0
	c.processed[1] = 0
}

// NeedsMaintenance reports whether the next τ-tick maintenance pass can
// observably change this channel: a positive capacity price still decaying
// toward zero, unreset window statistics, or a waiting queue. For a channel
// where this is false, UpdatePrices (either parameterization), MarkStale
// and a queue drain are all no-ops — λ moves by κ·(n_a+n_b−cap), clamped at
// zero when the stats are zero, and μ by η·(m_a−m_b), exactly zero then (a
// residual μ>0 is held, not decayed, so it alone needs no tick) — and the
// tick scheduler can skip the channel without changing a single bit of the
// simulation. This is what turns the per-tick channel sweep from O(C) into
// O(active).
func (c *Channel) NeedsMaintenance() bool {
	if c.closed {
		return false
	}
	if c.lambda > 0 || c.processed[0] != 0 || c.processed[1] != 0 {
		return true
	}
	for d := range c.dirs {
		ds := &c.dirs[d]
		if ds.arrived != 0 || ds.required != 0 || len(ds.queue) > 0 {
			return true
		}
	}
	return false
}

// Price returns the routing price ξ for direction d (eq. 23):
// ξ_{a,b} = 2λ + μ_{a,b} − μ_{b,a}, floored at zero so a heavily
// counter-imbalanced channel is free rather than negatively priced.
func (c *Channel) Price(d Direction) float64 {
	p := 2*c.lambda + c.dirs[d].mu - c.dirs[d.Reverse()].mu
	if p < 0 {
		return 0
	}
	return p
}

// Fee returns the forwarding fee for direction d (eq. 24): T_fee·ξ.
func (c *Channel) Fee(d Direction, tFee float64) float64 {
	return tFee * c.Price(d)
}

// QueueLen returns the number of TUs waiting in direction d.
func (c *Channel) QueueLen(d Direction) int { return len(c.dirs[d].queue) }

// QueueValue returns the total value waiting in direction d (q_amount).
func (c *Channel) QueueValue(d Direction) float64 {
	total := 0.0
	for _, tu := range c.dirs[d].queue {
		total += tu.Value
	}
	return total
}

// Enqueue adds a TU to the waiting queue for direction d. It fails when the
// queue value limit would be exceeded or the channel is closed.
func (c *Channel) Enqueue(d Direction, tu *QueuedTU) error {
	if c.closed {
		return fmt.Errorf("channel: enqueue on closed channel %d", c.Edge)
	}
	if tu == nil || tu.Value <= 0 {
		return fmt.Errorf("channel: invalid TU")
	}
	if c.QueueLimit > 0 && c.QueueValue(d)+tu.Value > c.QueueLimit {
		return fmt.Errorf("channel: queue limit %v exceeded", c.QueueLimit)
	}
	c.dirs[d].queue = append(c.dirs[d].queue, tu)
	return nil
}

// Dequeue removes and returns the scheduler-chosen TU from direction d, or
// nil when the queue is empty.
func (c *Channel) Dequeue(d Direction, s Scheduler) *QueuedTU {
	q := c.dirs[d].queue
	if len(q) == 0 {
		return nil
	}
	i := s.Next(q)
	if i < 0 || i >= len(q) {
		i = 0
	}
	tu := q[i]
	c.dirs[d].queue = append(q[:i], q[i+1:]...)
	return tu
}

// MarkStale marks TUs whose queueing delay exceeds threshold at time now
// and appends them to marked, which it returns; marked TUs stay queued (hubs
// "do not process the packet and merely forward it" — the caller decides to
// abort). Passing a reused buffer's [:0] keeps the call allocation-free.
func (c *Channel) MarkStale(d Direction, now, threshold float64, marked []*QueuedTU) []*QueuedTU {
	for _, tu := range c.dirs[d].queue {
		if !tu.Marked && now-tu.Enqueued > threshold {
			tu.Marked = true
			marked = append(marked, tu)
		}
	}
	return marked
}

// Queued returns a snapshot of direction d's waiting queue in queue order.
// Callers use it to unwind queued TUs when a channel closes; the returned
// slice is a copy, safe against concurrent RemoveQueued calls during
// iteration.
func (c *Channel) Queued(d Direction) []*QueuedTU {
	return append([]*QueuedTU(nil), c.dirs[d].queue...)
}

// RemoveQueued removes a specific TU (by pointer) from direction d's queue.
// It reports whether the TU was present.
func (c *Channel) RemoveQueued(d Direction, tu *QueuedTU) bool {
	q := c.dirs[d].queue
	for i, x := range q {
		if x == tu {
			c.dirs[d].queue = append(q[:i], q[i+1:]...)
			return true
		}
	}
	return false
}

// Imbalance returns |balance_fwd - balance_rev| / capacity in [0,1]; 0 is
// perfectly balanced. Reported as a load-balance metric.
func (c *Channel) Imbalance() float64 {
	cap := c.Capacity()
	if cap == 0 {
		return 0
	}
	return math.Abs(c.dirs[0].balance-c.dirs[1].balance) / cap
}
