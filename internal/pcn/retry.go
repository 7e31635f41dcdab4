// Failure-aware retry: the pcn side of internal/reliability. Every TU
// resolution feeds the reliability store (success per settled hop, failure
// at the failing hop), and a retryable abort can resurrect the TU onto a
// penalty-aware re-planned path within the payment's deadline budget.
//
// Everything here is gated on n.relStore != nil (Config.Retry armed), so
// the unarmed hot path pays one nil check per TU resolution and nothing
// else — the golden panels and the retry-off benchmarks cannot move.
package pcn

import (
	"github.com/splicer-pcn/splicer/internal/graph"
)

// retryableReason reports whether a TU abort reason is worth re-planning
// around: hop-local resource exhaustion and planning staleness. Deadline
// aborts are observed by the store (the hop did fail) but never retried —
// the budget is already gone; sibling/hold/congestion unwinds are payment-
// level outcomes, not hop failures.
func retryableReason(reason string) bool {
	switch reason {
	case "no_funds", "queue_full", "channel_closed", "lock_race":
		return true
	}
	return false
}

// observableReason reports whether an abort reason is attributable to the
// TU's current hop for penalty learning.
func observableReason(reason string) bool {
	return retryableReason(reason) || reason == "deadline"
}

// observeTU feeds one TU resolution into the reliability store: a settled
// TU vouches for every hop it traversed; a hop-attributable abort penalizes
// the edge it died on (tu.hop is not advanced past a failed lock, so at
// abort time it indexes the failing edge).
func (n *Network) observeTU(tu *tuRun, ok bool, reason string) {
	now := n.engine.Now()
	if ok {
		for _, eid := range tu.path.Edges {
			n.relStore.ObserveSuccess(eid, now)
		}
		return
	}
	if observableReason(reason) && tu.hop < len(tu.path.Edges) {
		n.relStore.ObserveFailure(tu.path.Edges[tu.hop], now)
	}
}

// maybeRetryTU implements the bounded retry loop: on a retryable abort of
// an honest TU with attempts and deadline budget remaining, re-plan from
// the sender with the failed hop hard-excluded (plus the store's penalty
// overlay) and re-send after a per-attempt backoff. Returns true when the
// TU was resurrected — the caller must not resolve it.
//
// The TU keeps its id (same payment hash on retry, as in Lightning), its
// pathIdx and its rate-controller window slot: OnSend ran once at the first
// attempt, and the final resolution settles the controller exactly once,
// so window accounting stays balanced across any number of attempts.
func (n *Network) maybeRetryTU(tu *tuRun, reason string) bool {
	run := tu.tx
	if run.failed || run.finished || run.tx.Adversarial || run.tx.Hold > 0 {
		return false
	}
	if !retryableReason(reason) || tu.attempts+1 >= n.cfg.Retry.MaxAttempts {
		return false
	}
	now := n.engine.Now()
	backoff := n.cfg.Retry.Backoff * float64(tu.attempts+1)
	if n.retryRng != nil {
		// Jitter desynchronizes herd retries after a shared-edge failure;
		// the stream is seeded per run (scenario: spec Split(6)).
		backoff *= 1 + 0.1*n.retryRng.Float64()
	}
	resend := now + backoff
	if resend+n.cfg.HopDelay >= run.tx.Deadline {
		return false // not enough budget left to traverse even one hop
	}
	avoid := graph.EdgeID(-1)
	if tu.hop < len(tu.path.Edges) {
		avoid = tu.path.Edges[tu.hop]
	}
	// Penalty-aware re-plan on the exact finder: exclusion windows and the
	// avoided hop are per-query state, so the shared route cache must not
	// see these paths.
	path, ok := n.PathFinder().ShortestPath(run.tx.Sender, run.tx.Recipient,
		n.relStore.WeightAvoiding(now, avoid))
	if !ok {
		return false
	}
	tu.attempts++
	n.metrics.AddHandle(n.mh.tuRetried, 1)
	// Resurrect: abortTU already refunded the locked hops, emptied the
	// contract chain (a longer new path outgrows its slab slot once) and
	// detached the queue entry; re-arm the TU on the new path and rejoin the
	// live set so the deadline watchdog can still unwind it during the
	// backoff wait.
	tu.done = false
	tu.hop = 0
	tu.path = path
	tu.liveIdx = len(run.live)
	run.live = append(run.live, tu)
	if _, err := n.engine.ScheduleHandler(resend, 3, tu); err != nil {
		panic(err) // resend > now by construction
	}
	return true
}
