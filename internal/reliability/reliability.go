// Package reliability is the failure-aware routing layer: a deterministic,
// seeded reimplementation of the "mission control" pattern production
// Lightning routers use. The payment lifecycle reports every transaction-unit
// outcome at its failing hop; the Store turns those observations into
// per-edge penalty scores with exponential time-decay and a hard-exclusion
// window after each failure, and exposes them as a cost overlay for
// graph.PathFinder so retries (and any penalty-aware re-plan) route around
// edges that recently failed.
//
// Determinism contract: the Store is a pure fold over the observation
// sequence (edge, time, outcome) — no clocks, no randomness, no maps with
// iteration-order dependence. A Store that has never observed anything
// returns graph.UnitWeight itself from WeightAvoiding, so empty-store path
// queries are bit-identical to PathFinder.UnitShortestPath; the retry layer
// in pcn only consults the overlay after the first observation, and only
// when armed, which is how the golden panels stay byte-identical with
// retries off.
//
// A Store belongs to exactly one pcn.Network and is not goroutine-safe
// (sweep workers each own a private network, matching the simulator's
// single-writer discipline).
package reliability

import (
	"fmt"
	"math"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// Config parameterizes the retry layer. The zero value is unarmed: no
// store is created, no observations are made, and the payment lifecycle is
// byte-identical to the retry-less simulator.
type Config struct {
	// MaxAttempts is the total send budget per transaction unit, first
	// attempt included. <= 1 disables retries (the armed threshold).
	MaxAttempts int
	// Backoff is the base re-send delay in seconds; attempt i waits
	// i·Backoff plus jitter before re-planning. Default 0.05.
	Backoff float64
	// HalfLife is the penalty decay half-life in seconds: an edge's penalty
	// halves every HalfLife of quiet time. Default 2.
	HalfLife float64
	// Exclusion is the hard-exclusion window in seconds: for this long
	// after a failure the edge is unroutable (+Inf cost), not merely
	// penalized. Default 0.5.
	Exclusion float64
	// PenaltyWeight inflates a penalized edge's unit cost to
	// 1 + PenaltyWeight·penalty. Default 4.
	PenaltyWeight float64
	// Seed seeds the backoff-jitter stream (pcn derives an rng from it;
	// the scenario layer overrides the stream with the spec source's
	// Split(6) so the other build streams keep their draw order).
	Seed uint64
}

// NewConfig returns the armed defaults (MaxAttempts 3).
func NewConfig() Config {
	return Config{
		MaxAttempts:   3,
		Backoff:       0.05,
		HalfLife:      2,
		Exclusion:     0.5,
		PenaltyWeight: 4,
	}
}

// Armed reports whether the configuration enables retries at all.
func (c Config) Armed() bool { return c.MaxAttempts > 1 }

// Validate rejects nonsensical armed configurations. The zero value
// (unarmed) always validates.
func (c Config) Validate() error {
	if !c.Armed() {
		return nil
	}
	if c.Backoff < 0 || c.HalfLife < 0 || c.Exclusion < 0 || c.PenaltyWeight < 0 {
		return fmt.Errorf("reliability: negative retry parameter (backoff %v, half-life %v, exclusion %v, penalty weight %v)",
			c.Backoff, c.HalfLife, c.Exclusion, c.PenaltyWeight)
	}
	return nil
}

// withDefaults fills unset knobs of an armed config.
func (c Config) withDefaults() Config {
	d := NewConfig()
	if c.Backoff == 0 {
		c.Backoff = d.Backoff
	}
	if c.HalfLife == 0 {
		c.HalfLife = d.HalfLife
	}
	if c.Exclusion == 0 {
		c.Exclusion = d.Exclusion
	}
	if c.PenaltyWeight == 0 {
		c.PenaltyWeight = d.PenaltyWeight
	}
	return c
}

// Stats counts the store's observation activity.
type Stats struct {
	// Failures and Successes are observations recorded.
	Failures, Successes int
	// ExcludedHits counts weight queries answered with +Inf because the
	// edge was inside its exclusion window.
	ExcludedHits int
}

// edgeState is one edge's learned reliability: a decayed penalty score and
// the end of its current hard-exclusion window.
type edgeState struct {
	penalty       float64
	updated       float64 // time the penalty was last decayed to
	excludedUntil float64
}

// Store accumulates per-edge reliability observations.
type Store struct {
	cfg    Config
	edges  []edgeState // indexed by EdgeID, grown on demand
	seen   bool        // any observation ever recorded
	decayK float64     // ln 2 / half-life (0: no decay)
	stats  Stats
}

// NewStore builds a store under cfg (defaults filled for unset knobs).
func NewStore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg}
	if cfg.HalfLife > 0 {
		s.decayK = math.Ln2 / cfg.HalfLife
	}
	return s
}

// Stats returns the observation counters.
func (s *Store) Stats() Stats { return s.stats }

func (s *Store) state(e graph.EdgeID) *edgeState {
	if int(e) >= len(s.edges) {
		grown := make([]edgeState, int(e)+1)
		copy(grown, s.edges)
		s.edges = grown
	}
	return &s.edges[e]
}

// decayTo brings an edge's penalty forward to now.
func (es *edgeState) decayTo(now, k float64) {
	if dt := now - es.updated; dt > 0 && k > 0 && es.penalty > 0 {
		es.penalty *= math.Exp(-k * dt)
	}
	es.updated = now
}

// ObserveFailure records a TU failure at edge e: the penalty steps up by
// one (after decay) and the edge's hard-exclusion window restarts.
func (s *Store) ObserveFailure(e graph.EdgeID, now float64) {
	if e < 0 {
		return
	}
	es := s.state(e)
	es.decayTo(now, s.decayK)
	es.penalty++
	if until := now + s.cfg.Exclusion; until > es.excludedUntil {
		es.excludedUntil = until
	}
	s.seen = true
	s.stats.Failures++
}

// ObserveSuccess records a settled hop at edge e: the penalty halves (on
// top of time-decay), so an edge that recovers is forgiven quickly, and any
// exclusion window ends — the edge demonstrably forwards again.
func (s *Store) ObserveSuccess(e graph.EdgeID, now float64) {
	if e < 0 {
		return
	}
	es := s.state(e)
	es.decayTo(now, s.decayK)
	es.penalty *= 0.5
	es.excludedUntil = now
	s.seen = true
	s.stats.Successes++
}

// WeightAvoiding returns the penalty-aware cost overlay for PathFinder
// queries at time now: an edge inside its exclusion window costs +Inf
// (Dijkstra skips it), every other edge costs 1 + PenaltyWeight·penalty,
// and avoid — the hop a retry is routing around, or -1 — is excluded
// whatever the store's state for it. An empty store with nothing to avoid
// returns graph.UnitWeight itself, so the query is bit-identical to
// PathFinder.UnitShortestPath — the pinned empty-store contract.
func (s *Store) WeightAvoiding(now float64, avoid graph.EdgeID) graph.WeightFunc {
	if !s.seen && avoid < 0 {
		return graph.UnitWeight
	}
	return func(e graph.Edge, _ graph.NodeID) float64 {
		if e.ID == avoid {
			return math.Inf(1)
		}
		if int(e.ID) >= len(s.edges) {
			return 1
		}
		es := &s.edges[e.ID]
		if now < es.excludedUntil {
			s.stats.ExcludedHits++
			return math.Inf(1)
		}
		es.decayTo(now, s.decayK)
		return 1 + s.cfg.PenaltyWeight*es.penalty
	}
}
