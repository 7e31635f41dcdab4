// Package attack is the adversarial & stress subsystem: seeded injectors
// that subject a live pcn.Network to the three threat models the resilience
// panel measures — HTLC jamming (attacker-controlled nodes lock value along
// paths and withhold the preimage until a timeout), flash-crowd demand
// shocks (a sudden arrival-rate spike concentrated on one region), and
// correlated hub outages (the top-k placement hubs depart simultaneously,
// with optional recovery).
//
// Every injector schedules its events on the network's own sim engine (via
// At/Arrive), so attacks compose with the dynamics driver's churn timeline
// and with static trace runs alike, and determinism is preserved: one
// rng.Source seeds all attacker randomness, disjoint from the workload and
// dynamics streams. The conservation-of-funds invariant is the correctness
// oracle — an attack that creates or strands funds found a bug, not a
// vulnerability.
package attack

import (
	"fmt"

	"github.com/splicer-pcn/splicer/internal/dynamics"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// Kind names an attack type.
type Kind string

// The three attacks of the resilience panel.
const (
	KindJamming    Kind = "jamming"
	KindFlashCrowd Kind = "flash-crowd"
	KindHubOutage  Kind = "hub-outage"
)

// Transaction-ID bases keep attacker and spike payments out of the honest
// trace's ID space (the network keys in-flight state by tx ID).
const (
	flashIDBase   = 1 << 29
	jammingIDBase = 1 << 30
)

// Config parameterizes one injector. Only the fields of the selected Kind
// are read; zero values get the documented defaults.
type Config struct {
	Kind Kind
	// Start and Duration bound the attack window in seconds. Hub outages
	// strike once at Start (Duration unused).
	Start    float64
	Duration float64

	// Jamming: Attackers nodes (default 4) issue adversarial payments at
	// aggregate Poisson rate Rate (tx/s), each of Value tokens (default 4,
	// the MaxTU) held locked for HoldTime seconds (default 2).
	Attackers int
	Rate      float64
	HoldTime  float64
	Value     float64

	// Flash crowd: during the window the aggregate arrival rate targeting a
	// contiguous region of RegionFraction (default 0.2) of the clients is
	// SpikeFactor × BaseRate; the injector superposes the extra
	// (SpikeFactor−1)·BaseRate honest arrivals. ValueScale and Timeout echo
	// the base workload so spike payments are drawn from the same value
	// distribution and deadline rule.
	SpikeFactor    float64
	RegionFraction float64
	BaseRate       float64
	ValueScale     float64
	Timeout        float64

	// Hub outage: the TopK placement hubs (top-degree nodes for hub-less
	// schemes) depart simultaneously at Start; with RecoverAfter > 0 they
	// rejoin at Start+RecoverAfter and re-open their former channels, funded
	// with the balances held at depart time (fresh pledged capital).
	TopK         int
	RecoverAfter float64
}

// Validate checks the parameters of the selected kind.
func (c Config) Validate() error {
	switch c.Kind {
	case KindJamming, KindFlashCrowd, KindHubOutage:
	default:
		return fmt.Errorf("attack: unknown kind %q", c.Kind)
	}
	if c.Start < 0 || c.Duration < 0 {
		return fmt.Errorf("attack: window must be non-negative, got start %v duration %v", c.Start, c.Duration)
	}
	switch c.Kind {
	case KindJamming:
		if c.Rate < 0 || c.Attackers < 0 || c.HoldTime < 0 || c.Value < 0 {
			return fmt.Errorf("attack: jamming parameters must be non-negative")
		}
	case KindFlashCrowd:
		if c.SpikeFactor != 0 && c.SpikeFactor < 1 {
			return fmt.Errorf("attack: spike factor must be >= 1, got %v", c.SpikeFactor)
		}
		if c.RegionFraction < 0 || c.RegionFraction > 1 {
			return fmt.Errorf("attack: region fraction must be in [0,1], got %v", c.RegionFraction)
		}
		if c.BaseRate <= 0 || c.ValueScale <= 0 || c.Timeout <= 0 {
			return fmt.Errorf("attack: flash crowd needs positive base rate, value scale and timeout")
		}
	case KindHubOutage:
		if c.TopK < 0 || c.RecoverAfter < 0 {
			return fmt.Errorf("attack: outage parameters must be non-negative")
		}
	}
	return nil
}

// withDefaults fills the documented zero-value defaults.
func (c Config) withDefaults() Config {
	if c.Kind == KindJamming {
		if c.Attackers == 0 {
			c.Attackers = 4
		}
		if c.HoldTime == 0 {
			c.HoldTime = 2
		}
		if c.Value == 0 {
			c.Value = 4
		}
	}
	if c.Kind == KindFlashCrowd {
		if c.SpikeFactor == 0 {
			c.SpikeFactor = 1
		}
		if c.RegionFraction == 0 {
			c.RegionFraction = 0.2
		}
	}
	return c
}

// End returns the last instant the attack can schedule an event at; a run
// executes to a horizon past it, so the attack unwinds cleanly.
func (c Config) End() float64 {
	switch c.Kind {
	case KindJamming:
		return c.Start + c.Duration + c.HoldTime + 1
	case KindFlashCrowd:
		return c.Start + c.Duration + c.Timeout
	case KindHubOutage:
		if c.RecoverAfter > 0 {
			return c.Start + c.RecoverAfter
		}
		return c.Start
	}
	return c.Start
}

// Stats counts what an injector actually did, for tests and reporting.
type Stats struct {
	AdversarialScheduled int // jamming payments scheduled
	FlashScheduled       int // spike payments scheduled
	HubsStruck           int // hubs departed by the outage
	HubsRecovered        int // hubs rejoined after RecoverAfter
	ChannelsReopened     int // former hub channels re-opened on recovery
}

// reopen records one former hub channel for recovery: the peer and the
// per-side balances at depart time.
type reopen struct {
	peer    graph.NodeID
	balHub  float64
	balPeer float64
}

// Injector installs one attack's events on a network's engine.
type Injector struct {
	net *pcn.Network
	drv *dynamics.Driver // optional demand-membership coupling
	src *rng.Source
	cfg Config

	clients []graph.NodeID
	struck  map[graph.NodeID][]reopen
	stats   Stats
}

// NewInjector builds an injector over a freshly constructed network. The
// source seeds all attacker randomness; equal seeds over equal networks
// produce identical attacks.
func NewInjector(net *pcn.Network, src *rng.Source, cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{net: net, src: src, cfg: cfg.withDefaults(), struck: map[graph.NodeID][]reopen{}}
	g := net.Graph()
	for v := 0; v < g.NumNodes(); v++ {
		if !net.Departed(graph.NodeID(v)) {
			in.clients = append(in.clients, graph.NodeID(v))
		}
	}
	if len(in.clients) < 2 {
		return nil, fmt.Errorf("attack: need >= 2 active nodes, got %d", len(in.clients))
	}
	return in, nil
}

// AttachDriver couples the injector to a dynamics driver: nodes the outage
// departs leave the driver's demand ranking (and rejoin on recovery), so the
// demand process tracks the attacked topology the way it tracks the driver's
// own churn.
func (in *Injector) AttachDriver(d *dynamics.Driver) { in.drv = d }

// Install schedules the attack's events on the network's engine. Call after
// the network (and driver, if any) is built and before the event loop runs;
// events themselves fire inside the loop.
func (in *Injector) Install() error {
	switch in.cfg.Kind {
	case KindJamming:
		return in.installJamming()
	case KindFlashCrowd:
		return in.installFlashCrowd()
	case KindHubOutage:
		return in.installHubOutage()
	}
	return fmt.Errorf("attack: unknown kind %q", in.cfg.Kind)
}

// installJamming pre-draws the adversarial payment schedule: Attackers
// nodes, chosen uniformly, emit Poisson arrivals at aggregate rate Rate
// during the window. Each payment locks Value along a path to a random
// victim and withholds the preimage for HoldTime (Tx.Hold); the deadline
// leaves a 1 s margin past the hold so the full hold is honored before the
// watchdog unwinds it.
func (in *Injector) installJamming() error {
	cfg := in.cfg
	if cfg.Rate <= 0 || cfg.Duration <= 0 || cfg.Attackers == 0 {
		return nil
	}
	pickSrc := in.src.Split(1)
	arrSrc := in.src.Split(2)
	endSrc := in.src.Split(3)

	attackers := append([]graph.NodeID(nil), in.clients...)
	pickSrc.Shuffle(len(attackers), func(i, j int) {
		attackers[i], attackers[j] = attackers[j], attackers[i]
	})
	if cfg.Attackers < len(attackers) {
		attackers = attackers[:cfg.Attackers]
	}

	id := jammingIDBase
	end := cfg.Start + cfg.Duration
	for t := cfg.Start + arrSrc.Exponential(cfg.Rate); t < end; t += arrSrc.Exponential(cfg.Rate) {
		a := attackers[endSrc.IntN(len(attackers))]
		r := in.clients[endSrc.IntN(len(in.clients))]
		for r == a {
			r = in.clients[endSrc.IntN(len(in.clients))]
		}
		tx := workload.Tx{
			ID:          id,
			Sender:      a,
			Recipient:   r,
			Value:       cfg.Value,
			Arrival:     t,
			Deadline:    t + cfg.HoldTime + 1,
			Hold:        cfg.HoldTime,
			Adversarial: true,
		}
		id++
		in.stats.AdversarialScheduled++
		if err := in.net.At(t, func() { in.deliver(tx) }); err != nil {
			return err
		}
	}
	return nil
}

// installFlashCrowd pre-generates the spike trace (honest payments — they
// count toward TSR) and schedules it alongside whatever base demand runs.
func (in *Injector) installFlashCrowd() error {
	cfg := in.cfg
	if cfg.SpikeFactor <= 1 || cfg.Duration <= 0 {
		return nil
	}
	base := workload.Config{
		Clients:    in.clients,
		Rate:       cfg.BaseRate,
		Duration:   cfg.Start + cfg.Duration, // bounds validation only; flash draws its own window
		Timeout:    cfg.Timeout,
		ValueScale: cfg.ValueScale,
	}
	spike, err := workload.GenerateFlash(in.src.Split(2), base, workload.FlashConfig{
		Start:          cfg.Start,
		Duration:       cfg.Duration,
		SpikeFactor:    cfg.SpikeFactor,
		RegionFraction: cfg.RegionFraction,
		IDBase:         flashIDBase,
	})
	if err != nil {
		return err
	}
	for i := range spike {
		tx := spike[i]
		in.stats.FlashScheduled++
		if err := in.net.At(tx.Arrival, func() { in.deliver(tx) }); err != nil {
			return err
		}
	}
	return nil
}

// deliver hands a pre-generated payment to the network unless an endpoint
// departed since scheduling (demand to a vanished node is dropped, like the
// dynamics driver's live endpoint resolution would never have drawn it).
func (in *Injector) deliver(tx workload.Tx) {
	if in.net.Departed(tx.Sender) || in.net.Departed(tx.Recipient) {
		return
	}
	in.net.Arrive(tx)
}

// installHubOutage schedules the correlated strike (and optional recovery).
func (in *Injector) installHubOutage() error {
	cfg := in.cfg
	if cfg.TopK <= 0 {
		return nil
	}
	if err := in.net.At(cfg.Start, in.strikeHubs); err != nil {
		return err
	}
	if cfg.RecoverAfter > 0 {
		return in.net.At(cfg.Start+cfg.RecoverAfter, in.recoverHubs)
	}
	return nil
}

// strikeHubs departs the top-k hubs simultaneously. Hub-based schemes lose
// their placement hubs in placement order; hub-less schemes lose the top-k
// degree nodes — the same "most load-bearing nodes fail together" stress.
// Channel state at depart time is recorded so recovery can re-open.
func (in *Injector) strikeHubs() {
	targets := in.net.Hubs()
	if len(targets) == 0 {
		var active []graph.NodeID
		for _, v := range in.clients {
			if !in.net.Departed(v) {
				active = append(active, v)
			}
		}
		targets = topology.TopDegreeNodesOf(in.net.Graph(), active, in.cfg.TopK)
	}
	if in.cfg.TopK < len(targets) {
		targets = targets[:in.cfg.TopK]
	}
	g := in.net.Graph()
	for _, h := range targets {
		if in.net.Departed(h) {
			continue
		}
		var former []reopen
		for _, eid := range g.Incident(h) {
			ch := in.net.Channel(eid)
			if ch.Closed() {
				continue
			}
			e := g.Edge(eid)
			peer := e.U
			if peer == h {
				peer = e.V
			}
			dh := ch.DirFrom(h)
			former = append(former, reopen{peer: peer, balHub: ch.Balance(dh), balPeer: ch.Balance(dh.Reverse())})
		}
		if err := in.net.DepartNode(h); err != nil {
			continue
		}
		in.struck[h] = former
		in.stats.HubsStruck++
		if in.drv != nil {
			in.drv.RemoveFromDemand(h)
		}
	}
}

// recoverHubs rejoins the struck hubs and re-opens their former channels
// with the balances held at depart time — fresh pledged capital, recorded by
// OpenChannel, so conservation holds across the outage. The rejoined node
// does not get its hub role back; online re-placement can re-promote it,
// which is the recovery dynamic the panel's Splicer(online) variant shows.
func (in *Injector) recoverHubs() {
	// Deterministic order: clients is ascending, struck hubs are a subset.
	for _, h := range in.clients {
		former, ok := in.struck[h]
		if !ok {
			continue
		}
		delete(in.struck, h)
		if err := in.net.RejoinNode(h); err != nil {
			continue
		}
		in.stats.HubsRecovered++
		if in.drv != nil {
			in.drv.AddToDemand(h)
		}
		for _, r := range former {
			if in.net.Departed(r.peer) {
				continue
			}
			if _, err := in.net.OpenChannel(h, r.peer, r.balHub, r.balPeer); err != nil {
				continue
			}
			in.stats.ChannelsReopened++
		}
	}
}
