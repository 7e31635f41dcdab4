// Package dynamics is the dynamic-network layer of the simulator: it drives
// a live pcn.Network through a timeline of node arrivals and departures,
// channel opens/closes/top-ups, channel depletion repair (periodic
// rebalancing), and time-varying demand (diurnal arrival-rate modulation
// plus Zipf-hotspot drift of the endpoint distribution), with optional
// online hub re-placement.
//
// The paper evaluates Splicer and its baselines on static snapshots; the
// phenomena its motivation leans on (§II-B deadlocks, hub capitalization)
// are dynamic. This package opens that axis: how each scheme's TSR/delay
// degrades under churn, and whether periodically re-running placement
// (Network.RePlaceHubs) recovers it.
//
// Determinism: the structural event timeline is a pure function of the seed
// (GenerateTimeline), carrying uniform draws that the driver resolves
// against the live topology at apply time. The driver itself runs inside
// the network's single-threaded event loop, so a whole dynamic run is a
// deterministic function of (graph, config, seed) — byte-identical across
// sweep worker counts.
package dynamics

import (
	"fmt"
	"sort"

	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// Kind identifies a structural event type.
type Kind int

// Structural event kinds.
const (
	KindJoin  Kind = iota + 1 // a node arrives and opens channels
	KindLeave                 // a node departs; its channels close
	KindOpen                  // two existing nodes open a channel
	KindClose                 // an existing channel closes
	KindTopUp                 // an existing channel is topped up
)

func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	case KindOpen:
		return "open"
	case KindClose:
		return "close"
	case KindTopUp:
		return "topup"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one pre-generated structural event. Node and channel choices are
// carried as uniform draws in [0,1) (Picks) and resolved against the live
// topology when the event fires, so the timeline itself never goes stale:
// "close the p-th live channel" is meaningful whatever happened before it.
type Event struct {
	Time   float64
	Kind   Kind
	Picks  []float64 // selection draws; length depends on Kind
	Amount float64   // channel funding (join/open) or top-up size
}

// Config parameterizes a dynamic run. The zero value is inert; NewConfig
// supplies usable defaults.
type Config struct {
	// Horizon is the length of the dynamic evolution in seconds: demand and
	// structural events stop there, and the run drains for Timeout after.
	Horizon float64

	// Structural churn rates, events/sec. Zero disables a process.
	JoinRate  float64
	LeaveRate float64
	OpenRate  float64
	CloseRate float64
	TopUpRate float64
	// JoinChannels is how many channels a joining node opens.
	JoinChannels int
	// ChannelScale multiplies the LN-calibrated funding of dynamically
	// opened channels (matching the topology generator's scale).
	ChannelScale float64

	// MinPopulation guards the network against churning itself away: leave
	// events are skipped while the active population is at or below it.
	MinPopulation int

	// Depletion repair: every RebalanceInterval, the RebalanceTopK most
	// imbalanced open channels move RebalanceFraction of their balance gap
	// back toward even (off-chain circular rebalancing). Interval 0
	// disables.
	RebalanceInterval float64
	RebalanceFraction float64
	RebalanceTopK     int

	// Demand.
	Rate       float64 // base aggregate arrival rate (tx/sec)
	ValueScale float64
	ZipfSkew   float64
	Timeout    float64
	// DiurnalAmplitude modulates the arrival rate:
	// λ(t) = Rate·(1 + A·sin(2πt/DiurnalPeriod)), A in [0,1).
	// DiurnalPeriod 0 means one full cycle over the horizon.
	DiurnalAmplitude float64
	DiurnalPeriod    float64
	// HotspotDriftInterval re-draws which nodes are the Zipf hotspots every
	// interval (0 disables): the popularity ranking is reshuffled, shifting
	// the demand concentration across the network over time.
	HotspotDriftInterval float64

	// ReplaceInterval re-runs hub placement online every interval (0 keeps
	// the initial placement static). Meaningful for hub-based schemes.
	ReplaceInterval float64
}

// NewConfig returns a moderate-churn dynamic configuration over the given
// horizon: the structural processes are on at modest rates, demand is
// diurnal with hotspot drift, and re-placement is off (static baseline).
func NewConfig(horizon float64) Config {
	return Config{
		Horizon:              horizon,
		JoinRate:             0.5,
		LeaveRate:            0.5,
		OpenRate:             0.5,
		CloseRate:            0.5,
		TopUpRate:            1,
		JoinChannels:         2,
		ChannelScale:         1,
		MinPopulation:        8,
		RebalanceInterval:    1,
		RebalanceFraction:    0.5,
		RebalanceTopK:        8,
		Rate:                 100,
		ValueScale:           1,
		ZipfSkew:             0.8,
		Timeout:              3,
		DiurnalAmplitude:     0.5,
		DiurnalPeriod:        0,
		HotspotDriftInterval: 2,
		ReplaceInterval:      0,
	}
}

// Validate checks configuration sanity.
func (c Config) Validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("dynamics: Horizon must be positive, got %v", c.Horizon)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"JoinRate", c.JoinRate}, {"LeaveRate", c.LeaveRate},
		{"OpenRate", c.OpenRate}, {"CloseRate", c.CloseRate},
		{"TopUpRate", c.TopUpRate},
	} {
		if r.v < 0 {
			return fmt.Errorf("dynamics: %s must be >= 0, got %v", r.name, r.v)
		}
	}
	if c.JoinRate > 0 && c.JoinChannels < 1 {
		return fmt.Errorf("dynamics: JoinChannels must be >= 1, got %d", c.JoinChannels)
	}
	if c.ChannelScale <= 0 {
		return fmt.Errorf("dynamics: ChannelScale must be positive, got %v", c.ChannelScale)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("dynamics: Rate must be positive, got %v", c.Rate)
	}
	if c.ValueScale <= 0 {
		return fmt.Errorf("dynamics: ValueScale must be positive, got %v", c.ValueScale)
	}
	if c.Timeout <= 0 {
		return fmt.Errorf("dynamics: Timeout must be positive, got %v", c.Timeout)
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		return fmt.Errorf("dynamics: DiurnalAmplitude must be in [0,1), got %v", c.DiurnalAmplitude)
	}
	if c.RebalanceInterval > 0 && (c.RebalanceFraction <= 0 || c.RebalanceFraction > 1) {
		return fmt.Errorf("dynamics: RebalanceFraction must be in (0,1], got %v", c.RebalanceFraction)
	}
	return nil
}

// End returns the last deadline a dynamic run can give a payment: the
// demand stops at Horizon and its payments drain for Timeout after. A run
// executes to a horizon past End.
func (c Config) End() float64 { return c.Horizon + c.Timeout }

// diurnalPeriod resolves the default (one cycle per horizon).
func (c Config) diurnalPeriod() float64 {
	if c.DiurnalPeriod > 0 {
		return c.DiurnalPeriod
	}
	return c.Horizon
}

// picksFor returns how many selection draws an event kind carries.
func (c Config) picksFor(k Kind) int {
	switch k {
	case KindJoin:
		return c.JoinChannels // one peer draw per channel the joiner opens
	case KindLeave, KindClose, KindTopUp:
		return 1
	case KindOpen:
		return 2
	default:
		return 0
	}
}

// GenerateTimeline produces the structural event timeline for a run: one
// Poisson process per enabled kind, superposed and sorted by time (ties
// break by kind, then by per-kind sequence). The result is a pure function
// of the source's seed and the config — the dynamics determinism tests pin
// this down byte-for-byte.
func GenerateTimeline(src *rng.Source, cfg Config) ([]Event, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sizes := workload.NewChannelSizeDist(src.Split(7), cfg.ChannelScale)
	var events []Event
	processes := []struct {
		kind Kind
		rate float64
	}{
		{KindJoin, cfg.JoinRate},
		{KindLeave, cfg.LeaveRate},
		{KindOpen, cfg.OpenRate},
		{KindClose, cfg.CloseRate},
		{KindTopUp, cfg.TopUpRate},
	}
	for _, p := range processes {
		if p.rate <= 0 {
			continue
		}
		s := src.Split(uint64(p.kind))
		for t := s.Exponential(p.rate); t < cfg.Horizon; t += s.Exponential(p.rate) {
			ev := Event{Time: t, Kind: p.kind}
			for i := 0; i < cfg.picksFor(p.kind); i++ {
				ev.Picks = append(ev.Picks, s.Float64())
			}
			switch p.kind {
			case KindJoin, KindOpen:
				ev.Amount = sizes.Sample()
			case KindTopUp:
				// Top-ups are smaller than fresh funding: half a typical
				// channel, split across both sides at apply time.
				ev.Amount = sizes.Sample() / 2
			}
			events = append(events, ev)
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		return events[i].Kind < events[j].Kind
	})
	return events, nil
}
