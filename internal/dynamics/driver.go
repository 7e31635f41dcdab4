package dynamics

import (
	"fmt"
	"math"
	"sort"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// Applied is one resolved structural event, recorded for the determinism
// tests and for post-run inspection: the raw timeline carries draws, the
// applied log carries the concrete node/channel the draw resolved to.
type Applied struct {
	Time   float64
	Kind   Kind
	Node   graph.NodeID // joiner, leaver, or open endpoint u
	Peer   graph.NodeID // open endpoint v / join peer (first)
	Edge   graph.EdgeID // closed or topped-up channel
	Amount float64
	// Skipped notes an event that resolved to a no-op (population floor,
	// no live channel to close, ...) and why.
	Skipped string
}

// Driver runs one dynamic-network simulation: it owns the demand process
// and applies the structural timeline to the network from inside the
// network's event loop.
//
// A Driver is single-use and, like the Network, single-goroutine; parallel
// sweep workers each build their own.
type Driver struct {
	net *pcn.Network
	cfg Config

	timeline []Event

	// Demand state.
	arrSrc   *rng.Source // arrival interarrival times
	thinSrc  *rng.Source // diurnal thinning accepts
	endSrc   *rng.Source // endpoint draws
	driftSrc *rng.Source // hotspot drift reshuffles
	values   *workload.TxValueDist
	ranking  []graph.NodeID // active nodes in popularity order (rank 0 hottest)
	zipf     *rng.Zipf
	nextTxID int
	arrivals arrivalProcess

	applied []Applied
}

// NewDriver builds a driver over a freshly constructed network. The source
// seeds every stochastic component; two drivers built from equal-seed
// sources over equal networks produce identical runs.
func NewDriver(net *pcn.Network, src *rng.Source, cfg Config) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ReplaceInterval > 0 && net.Policy().Scheme() != pcn.SchemeSplicer {
		return nil, fmt.Errorf("dynamics: online re-placement drives the Splicer placement pipeline; scheme %v does not use it", net.Policy().Scheme())
	}
	timeline, err := GenerateTimeline(src.Split(1), cfg)
	if err != nil {
		return nil, err
	}
	d := &Driver{
		net:      net,
		cfg:      cfg,
		timeline: timeline,
		arrSrc:   src.Split(2),
		thinSrc:  src.Split(3),
		endSrc:   src.Split(4),
		driftSrc: src.Split(5),
		values:   workload.NewTxValueDist(src.Split(6), cfg.ValueScale),
	}
	d.arrivals.d = d
	// Initial popularity ranking: ascending node id, matching the static
	// workload generator's client order.
	for v := 0; v < net.Graph().NumNodes(); v++ {
		if !net.Departed(graph.NodeID(v)) {
			d.ranking = append(d.ranking, graph.NodeID(v))
		}
	}
	if len(d.ranking) < 2 {
		return nil, fmt.Errorf("dynamics: need >= 2 active nodes, got %d", len(d.ranking))
	}
	d.zipf = rng.NewZipf(d.endSrc, len(d.ranking), cfg.ZipfSkew)
	return d, nil
}

// Install schedules the driver's events on a network whose run has begun
// (pcn.Network.BeginRun, to a horizon past Config.End): the structural
// timeline, the periodic processes and the demand process. The events fire
// inside the network's event loop.
func (d *Driver) Install() error {
	for i := range d.timeline {
		ev := d.timeline[i]
		if err := d.net.At(ev.Time, func() { d.apply(ev) }); err != nil {
			return err
		}
	}
	// Periodic processes tick at i·interval below the demand horizon, on
	// the engine's drift-free Every loop at external-event priority.
	for _, p := range []struct {
		interval float64
		action   func()
	}{
		{d.cfg.RebalanceInterval, d.rebalance},
		{d.cfg.HotspotDriftInterval, d.driftHotspots},
		{d.cfg.ReplaceInterval, d.replace},
	} {
		if p.interval <= 0 {
			continue
		}
		if err := d.net.Every(p.interval, d.cfg.Horizon, p.action); err != nil {
			return err
		}
	}
	return d.arrivals.scheduleAfter(0)
}

// arrivalProcess is the nonhomogeneous Poisson demand process, extended by
// thinning: candidate arrivals come at the peak rate, and each is accepted
// with probability λ(t)/λpeak. It is the process's one event handler: at
// most one candidate is queued at a time, at t.
type arrivalProcess struct {
	d *Driver
	t float64
}

// scheduleAfter queues the candidate that follows time now.
func (p *arrivalProcess) scheduleAfter(now float64) error {
	d := p.d
	t := now + d.arrSrc.Exponential(d.peakRate())
	if t >= d.cfg.Horizon {
		return nil
	}
	p.t = t
	return d.net.AtHandler(t, p)
}

// Fire thins the candidate at p.t and queues the next one.
func (p *arrivalProcess) Fire() {
	d, t := p.d, p.t
	if d.thinSrc.Float64() < d.lambda(t)/d.peakRate() {
		d.arrive(t)
	}
	if err := p.scheduleAfter(t); err != nil {
		panic(err) // next arrival is in the future by construction
	}
}

// peakRate is the demand rate's maximum over the diurnal cycle.
func (d *Driver) peakRate() float64 { return d.cfg.Rate * (1 + d.cfg.DiurnalAmplitude) }

// lambda is the instantaneous demand rate at time t.
func (d *Driver) lambda(t float64) float64 {
	return d.cfg.Rate * (1 + d.cfg.DiurnalAmplitude*math.Sin(2*math.Pi*t/d.cfg.diurnalPeriod()))
}

// arrive resolves one payment against the live node set and delivers it.
func (d *Driver) arrive(t float64) {
	if len(d.ranking) < 2 {
		return
	}
	si := d.zipf.Next()
	ri := d.zipf.Next()
	for ri == si {
		ri = d.endSrc.IntN(len(d.ranking))
	}
	tx := workload.Tx{
		ID:        d.nextTxID,
		Sender:    d.ranking[si],
		Recipient: d.ranking[ri],
		Value:     d.values.Sample(),
		Arrival:   t,
		Deadline:  t + d.cfg.Timeout,
	}
	d.nextTxID++
	d.net.Arrive(tx)
}

// apply resolves and executes one structural event.
func (d *Driver) apply(ev Event) {
	rec := Applied{Time: ev.Time, Kind: ev.Kind, Amount: ev.Amount, Node: -1, Peer: -1, Edge: -1}
	switch ev.Kind {
	case KindJoin:
		d.applyJoin(ev, &rec)
	case KindLeave:
		d.applyLeave(ev, &rec)
	case KindOpen:
		d.applyOpen(ev, &rec)
	case KindClose:
		d.applyClose(ev, &rec)
	case KindTopUp:
		d.applyTopUp(ev, &rec)
	}
	d.applied = append(d.applied, rec)
}

func (d *Driver) applyJoin(ev Event, rec *Applied) {
	peers := make([]graph.NodeID, 0, len(ev.Picks))
	for _, p := range ev.Picks {
		peers = append(peers, d.ranking[pickIndex(p, len(d.ranking))])
	}
	v := d.net.JoinNode()
	rec.Node = v
	for i, peer := range peers {
		if peer == v {
			continue // cannot happen (v is new), but keep the guard local
		}
		if _, err := d.net.OpenChannel(v, peer, ev.Amount, ev.Amount); err != nil {
			rec.Skipped = err.Error()
			continue
		}
		if i == 0 {
			rec.Peer = peer
		}
	}
	// New nodes join at the cold end of the popularity ranking.
	d.ranking = append(d.ranking, v)
	d.rebuildZipf()
}

func (d *Driver) applyLeave(ev Event, rec *Applied) {
	if len(d.ranking) <= d.cfg.MinPopulation {
		rec.Skipped = "population floor"
		return
	}
	idx := pickIndex(ev.Picks[0], len(d.ranking))
	v := d.ranking[idx]
	if err := d.net.DepartNode(v); err != nil {
		rec.Skipped = err.Error()
		return
	}
	rec.Node = v
	d.ranking = append(d.ranking[:idx], d.ranking[idx+1:]...)
	d.rebuildZipf()
}

func (d *Driver) applyOpen(ev Event, rec *Applied) {
	n := len(d.ranking)
	if n < 2 {
		rec.Skipped = "too few nodes"
		return
	}
	u := d.ranking[pickIndex(ev.Picks[0], n)]
	v := d.ranking[pickIndex(ev.Picks[1], n)]
	if u == v {
		v = d.ranking[(pickIndex(ev.Picks[1], n)+1)%n]
	}
	if _, err := d.net.OpenChannel(u, v, ev.Amount, ev.Amount); err != nil {
		rec.Skipped = err.Error()
		return
	}
	rec.Node, rec.Peer = u, v
}

func (d *Driver) applyClose(ev Event, rec *Applied) {
	live := d.liveChannels()
	if len(live) == 0 {
		rec.Skipped = "no live channels"
		return
	}
	eid := live[pickIndex(ev.Picks[0], len(live))]
	if err := d.net.CloseChannel(eid); err != nil {
		rec.Skipped = err.Error()
		return
	}
	rec.Edge = eid
}

func (d *Driver) applyTopUp(ev Event, rec *Applied) {
	live := d.liveChannels()
	if len(live) == 0 {
		rec.Skipped = "no live channels"
		return
	}
	eid := live[pickIndex(ev.Picks[0], len(live))]
	if err := d.net.TopUpChannel(eid, ev.Amount/2, ev.Amount/2); err != nil {
		rec.Skipped = err.Error()
		return
	}
	rec.Edge = eid
}

// rebalance repairs depletion: the RebalanceTopK most imbalanced open
// channels move RebalanceFraction of their gap back toward even.
func (d *Driver) rebalance() {
	live := d.liveChannels()
	type cand struct {
		eid graph.EdgeID
		imb float64
	}
	cands := make([]cand, 0, len(live))
	for _, eid := range live {
		if imb := d.net.Channel(eid).Imbalance(); imb > 0 {
			cands = append(cands, cand{eid, imb})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].imb != cands[j].imb {
			return cands[i].imb > cands[j].imb
		}
		return cands[i].eid < cands[j].eid
	})
	k := d.cfg.RebalanceTopK
	if k > len(cands) {
		k = len(cands)
	}
	for _, c := range cands[:k] {
		d.net.RebalanceChannel(c.eid, d.cfg.RebalanceFraction)
	}
}

// rebuildZipf re-sizes the Zipf sampler after a membership change.
func (d *Driver) rebuildZipf() {
	d.zipf = rng.NewZipf(d.endSrc, len(d.ranking), d.cfg.ZipfSkew)
}

// RemoveFromDemand takes a node out of the demand ranking. External layers
// that depart nodes outside the driver's own timeline — the attack
// injector's correlated hub outage — call it so the demand process stops
// targeting a node the topology no longer holds. No-op when absent.
func (d *Driver) RemoveFromDemand(v graph.NodeID) {
	for i, u := range d.ranking {
		if u == v {
			d.ranking = append(d.ranking[:i], d.ranking[i+1:]...)
			d.rebuildZipf()
			return
		}
	}
}

// AddToDemand re-admits a node at the cold end of the popularity ranking
// (the same slot joiners get); the inverse of RemoveFromDemand, used when an
// outaged node recovers. No-op when already present.
func (d *Driver) AddToDemand(v graph.NodeID) {
	for _, u := range d.ranking {
		if u == v {
			return
		}
	}
	d.ranking = append(d.ranking, v)
	d.rebuildZipf()
}

// driftHotspots reshuffles the popularity ranking: which nodes carry the
// Zipf head changes over time, so demand concentration wanders across the
// network.
func (d *Driver) driftHotspots() {
	d.driftSrc.Shuffle(len(d.ranking), func(i, j int) {
		d.ranking[i], d.ranking[j] = d.ranking[j], d.ranking[i]
	})
}

// replace re-runs hub placement online. A failure (e.g. a placement solve
// on a degenerate topology) keeps the current hub set rather than killing
// the run.
func (d *Driver) replace() {
	_ = d.net.RePlaceHubs() // on error the current hubs stay placed
}

// liveChannels lists the open channels in ascending EdgeID order.
func (d *Driver) liveChannels() []graph.EdgeID {
	g := d.net.Graph()
	out := make([]graph.EdgeID, 0, g.NumLiveEdges())
	for i := 0; i < g.NumEdges(); i++ {
		if !g.EdgeRemoved(graph.EdgeID(i)) {
			out = append(out, graph.EdgeID(i))
		}
	}
	return out
}

// pickIndex maps a uniform draw in [0,1) to an index in [0,n).
func pickIndex(p float64, n int) int {
	i := int(p * float64(n))
	if i >= n { // p ~ 1-ε with float rounding
		i = n - 1
	}
	return i
}
