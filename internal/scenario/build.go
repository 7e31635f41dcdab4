// Spec → simulation materialization. The split-label discipline documented
// on the package comment lives here: every builder consumes the spec-level
// rng source in the same order as the hand-wired experiment runners did, so
// seeds reproduce historical topologies and traces bit-for-bit.
package scenario

import (
	"fmt"

	"github.com/splicer-pcn/splicer/internal/attack"
	"github.com/splicer-pcn/splicer/internal/dynamics"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/sweep"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// buildState carries the partially consumed spec-level rng source between
// build stages (the topology stage must run before the workload or dynamics
// stage may draw).
type buildState struct {
	spec    Spec // normalized
	src     *rng.Source
	sizes   *workload.ChannelSizeDist
	g       *graph.Graph
	hubTier []graph.NodeID
}

// beginBuild materializes the topology: Split(1) seeds the channel-size
// distribution, Split(2) the generator.
func (s Spec) beginBuild() (*buildState, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.normalize()
	st := &buildState{spec: n, src: rng.New(n.Seed)}
	st.sizes = workload.NewChannelSizeDist(st.src.Split(1), n.Topology.ChannelScale)
	topoSrc := st.src.Split(2)
	t := n.Topology
	var err error
	switch t.Type {
	case TopoWattsStrogatz:
		st.g, err = topology.WattsStrogatz(topoSrc, t.Nodes, t.Degree, t.Beta, st.sizes.CapacityFunc())
	case TopoBarabasiAlbert:
		st.g, err = topology.BarabasiAlbert(topoSrc, t.Nodes, t.AttachEdges, st.sizes.CapacityFunc())
	case TopoErdosRenyi:
		st.g, err = topology.ErdosRenyi(topoSrc, t.Nodes, t.EdgeProb, st.sizes.CapacityFunc())
	case TopoHubSpoke:
		scaled := func(mult float64) topology.CapacityFunc {
			return func() (float64, float64) {
				v := st.sizes.Sample() * mult
				return v, v
			}
		}
		st.g, st.hubTier, err = topology.HierarchicalHubSpoke(topoSrc,
			t.Cores, t.HubsPerCore, t.ClientsPerHub,
			scaled(t.CoreCapScale), scaled(t.HubCapScale), st.sizes.CapacityFunc())
	case TopoSnapshot:
		st.g, err = loadSnapshotAsset(t.Snapshot)
	default:
		err = fmt.Errorf("scenario: unknown topology type %q", t.Type)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: topology: %w", err)
	}
	return st, nil
}

// clients returns the workload's eligible endpoints in ascending id order.
func (st *buildState) clients() []graph.NodeID {
	excluded := map[graph.NodeID]bool{}
	if st.spec.Workload.ExcludeHubTier {
		for _, h := range st.hubTier {
			excluded[h] = true
		}
	}
	clients := make([]graph.NodeID, 0, st.g.NumNodes())
	for i := 0; i < st.g.NumNodes(); i++ {
		if !excluded[graph.NodeID(i)] {
			clients = append(clients, graph.NodeID(i))
		}
	}
	return clients
}

// trace materializes the workload: Split(3) seeds the synthetic generator;
// replayed traces consume no randomness.
func (st *buildState) trace() ([]workload.Tx, error) {
	w := st.spec.Workload
	switch w.Type {
	case WorkSynthetic:
		trace, err := workload.Generate(st.src.Split(3), workload.Config{
			Clients:             st.clients(),
			Rate:                w.Rate,
			Duration:            w.Duration,
			Timeout:             w.Timeout,
			ZipfSkew:            w.ZipfSkew,
			ValueScale:          w.ValueScale,
			CirculationFraction: w.CirculationFraction,
			OnOff:               w.OnOff.config(),
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: workload: %w", err)
		}
		return trace, nil
	case WorkReplay:
		trace, err := loadTraceAsset(w.Trace)
		if err != nil {
			return nil, fmt.Errorf("scenario: workload: %w", err)
		}
		if max := workload.MaxNode(trace); int(max) >= st.g.NumNodes() {
			return nil, fmt.Errorf("scenario: workload: trace references node %d but the topology has %d nodes", max, st.g.NumNodes())
		}
		return trace, nil
	default:
		return nil, fmt.Errorf("scenario: unknown workload type %q", w.Type)
	}
}

// Build materializes the static inputs: the channel graph and the payment
// trace. Dynamic specs build their trace online instead; use Run.
func (s Spec) Build() (*graph.Graph, []workload.Tx, error) {
	st, err := s.beginBuild()
	if err != nil {
		return nil, nil, err
	}
	trace, err := st.trace()
	if err != nil {
		return nil, nil, err
	}
	return st.g, trace, nil
}

// dynConfig maps the spec onto a dynamics configuration, mirroring the
// historical churn runner: all five structural processes at ChurnRate, the
// demand shaped by the workload block, everything else on NewConfig's
// defaults.
func (s Spec) dynConfig() dynamics.Config {
	n := s.normalize()
	dyn := dynamics.NewConfig(n.Workload.Duration)
	dyn.JoinRate = n.Dynamics.ChurnRate
	dyn.LeaveRate = n.Dynamics.ChurnRate
	dyn.OpenRate = n.Dynamics.ChurnRate
	dyn.CloseRate = n.Dynamics.ChurnRate
	dyn.TopUpRate = n.Dynamics.ChurnRate
	dyn.ChannelScale = n.Topology.ChannelScale
	dyn.Rate = n.Workload.Rate
	dyn.ValueScale = n.Workload.ValueScale
	dyn.ZipfSkew = n.Workload.ZipfSkew
	dyn.Timeout = n.Workload.Timeout
	dyn.ReplaceInterval = n.Dynamics.ReplaceInterval
	return dyn
}

// RunScheme executes the cell for one scheme and checks the
// conservation-of-funds invariant at the end of the run, so every
// scenario-engine simulation asserts that routing moved funds without
// minting or burning them.
func (s Spec) RunScheme(scheme pcn.Scheme) (pcn.Result, error) {
	return s.runScheme(scheme, 0)
}

// runScheme is RunScheme for a cell granted planners of the cores (0: all).
func (s Spec) runScheme(scheme pcn.Scheme, planners int) (pcn.Result, error) {
	st, err := s.beginBuild()
	if err != nil {
		return pcn.Result{}, err
	}
	cfg, err := s.config(scheme, planners)
	if err != nil {
		return pcn.Result{}, err
	}
	return s.runConfig(st, cfg)
}

// runConfig is RunScheme past the point where the pcn.Config is fixed: it
// builds the network over st's topology and runs it.
func (s Spec) runConfig(st *buildState, cfg pcn.Config) (pcn.Result, error) {
	net, err := pcn.NewNetwork(st.g, cfg)
	if err != nil {
		return pcn.Result{}, err
	}
	return s.runNetwork(st, net)
}

// runNetwork drives the static, attacked or dynamic run path the spec
// selects over a network built on st's topology, and checks conservation.
func (s Spec) runNetwork(st *buildState, net *pcn.Network) (pcn.Result, error) {
	if s.Dynamics != nil {
		d, err := dynamics.NewDriver(net, st.src.Split(4), s.dynConfig())
		if err != nil {
			return pcn.Result{}, err
		}
		if s.Attack != nil {
			inj, err := attack.NewInjector(net, st.src.Split(5), s.attackConfig())
			if err != nil {
				return pcn.Result{}, err
			}
			inj.AttachDriver(d)
			if err := inj.Install(); err != nil {
				return pcn.Result{}, err
			}
		}
		st.seedRetry(net)
		res, err := d.Run()
		if err != nil {
			return pcn.Result{}, err
		}
		return res, net.CheckConservation()
	}
	trace, err := st.trace()
	if err != nil {
		return pcn.Result{}, err
	}
	if s.Attack != nil {
		res, err := s.runStaticAttack(st, net, trace)
		if err != nil {
			return pcn.Result{}, err
		}
		return res, net.CheckConservation()
	}
	st.seedRetry(net)
	res, err := net.Run(trace)
	if err != nil {
		return pcn.Result{}, err
	}
	return res, net.CheckConservation()
}

// runStaticAttack replays the static trace with an injector armed:
// pcn.Network.Run decomposed onto the stepwise API so the attack's events
// land on the same engine and the horizon covers the attack's unwind
// (held payments release, struck hubs recover) past the trace's own end.
// The injector draws from Split(5), disjoint from every other build stream,
// so a spec minus its attack block reproduces the unattacked cell exactly.
func (s Spec) runStaticAttack(st *buildState, net *pcn.Network, trace []workload.Tx) (pcn.Result, error) {
	if len(trace) == 0 {
		return pcn.Result{}, fmt.Errorf("pcn: empty trace")
	}
	acfg := s.attackConfig()
	horizon := trace[len(trace)-1].Deadline + 1
	if end := acfg.End() + 1; end > horizon {
		horizon = end
	}
	if err := net.BeginRun(horizon); err != nil {
		return pcn.Result{}, err
	}
	for i := range trace {
		if err := net.ScheduleArrival(trace[i]); err != nil {
			return pcn.Result{}, err
		}
	}
	inj, err := attack.NewInjector(net, st.src.Split(5), acfg)
	if err != nil {
		return pcn.Result{}, err
	}
	if err := inj.Install(); err != nil {
		return pcn.Result{}, err
	}
	st.seedRetry(net)
	return net.Execute(horizon)
}

// seedRetry hands the retry layer its backoff-jitter stream — the spec
// source's Split(6). It is the LAST split drawn in every run path (after
// Split(4)/Split(5) when those are armed) and is drawn only when the spec's
// retry block is armed, so cells without retries consume exactly the
// historical stream sequence and stay byte-identical.
func (st *buildState) seedRetry(net *pcn.Network) {
	if r := st.spec.Routing.Retry; r != nil && r.config().Armed() {
		net.SeedRetryJitter(st.src.Split(6))
	}
}

// Run executes the cell with the spec's own scheme.
func (s Spec) Run() (pcn.Result, error) {
	if s.Scheme == "" {
		return pcn.Result{}, fmt.Errorf("scenario: spec %q names no scheme", s.Name)
	}
	scheme, err := pcn.SchemeByName(s.Scheme)
	if err != nil {
		return pcn.Result{}, err
	}
	return s.RunScheme(scheme)
}

// Cell packages one (scheme, axis point) run as a sweep cell. The Run hook
// owns a private graph, trace and network, so cells parallelize on sweep
// workers without shared state.
func (s Spec) Cell(scheme pcn.Scheme, axis string, x float64, label string) sweep.Cell {
	return sweep.Cell{
		Scheme: scheme,
		Seed:   s.Seed,
		Axis:   axis,
		X:      x,
		Label:  label,
		Run:    func(planners int) (pcn.Result, error) { return s.runScheme(scheme, planners) },
	}
}
