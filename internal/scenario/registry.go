// The named-scenario registry: every figure and table of the paper's
// evaluation — plus the post-paper panels (scaling, churn) and the new
// standalone scenarios — as a declarative entry over base Specs.
// cmd/scenarios runs entries by name.
package scenario

import (
	"fmt"
	"sort"
)

// Default sweep grids (figure x-axes). Functions return fresh copies so
// callers can trim them without affecting the registry.
func ChannelScaleGrid() []float64 { return []float64{0.25, 0.5, 1, 2, 4} }
func ValueScaleGrid() []float64   { return []float64{0.5, 1, 2, 4, 8} }
func TauGridMs() []float64        { return []float64{100, 200, 400, 600, 800, 1000} }
func NodeCountGrid() []float64    { return []float64{2000, 4000, 6000, 8000, 10000} }
func XLNodeCountGrid() []float64  { return []float64{20000, 50000, 100000} }
func ChurnRateGrid() []float64    { return []float64{0, 0.5, 1, 2, 4} }
func JammingRateGrid() []float64  { return []float64{0, 5, 10, 20, 40} }
func SpikeFactorGrid() []float64  { return []float64{1, 10, 30, 100} }
func HubOutageGrid() []float64    { return []float64{0, 1, 2, 4} }
func OmegaGrid() []float64 {
	return []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28, 2.56, 5.12}
}

// DefaultSchemes lists the five schemes of Figs. 7-8 in the paper's legend
// order.
func DefaultSchemes() []string {
	return []string{"Splicer", "Spider", "Flash", "Landmark", "A2L"}
}

// ChurnSchemes is the churn panel's comparison set: the paper's five plus
// the naive shortest-path baseline.
func ChurnSchemes() []string {
	return append(DefaultSchemes(), "ShortestPath")
}

// SmallSpec is the paper's small-scale scenario (100 nodes, §V-A).
func SmallSpec() Spec {
	return Spec{
		Name:        "small",
		Description: "paper small-scale: 100-node Watts-Strogatz, LN channel sizes, 120 tx/s for 8 s",
		Seed:        1,
		Topology: TopologySpec{
			Type: TopoWattsStrogatz, Nodes: 100, Degree: 4, Beta: 0.25, ChannelScale: 1,
		},
		Workload: WorkloadSpec{
			Type: WorkSynthetic, Rate: 120, Duration: 8, Timeout: 3,
			ZipfSkew: 0.8, ValueScale: 1, CirculationFraction: 0.25,
		},
		Routing: RoutingSpec{HubCandidates: 10},
	}
}

// LargeSpec is the paper's large-scale scenario (3000 nodes).
func LargeSpec() Spec {
	s := SmallSpec()
	s.Name = "large"
	s.Description = "paper large-scale: 3000-node Watts-Strogatz, 400 tx/s for 6 s"
	s.Seed = 2
	s.Topology.Nodes = 3000
	s.Workload.Rate = 400
	s.Workload.Duration = 6
	s.Routing.HubCandidates = 24
	return s
}

// ScaleSpec is the scaling scenario beyond the paper's grid (2k-10k nodes).
func ScaleSpec() Spec {
	s := SmallSpec()
	s.Name = "scale"
	s.Description = "scaling stress: 2k-10k-node Watts-Strogatz, exercises the path-computation layer"
	s.Seed = 3
	s.Topology.Nodes = 2000
	s.Workload.Rate = 200
	s.Workload.Duration = 4
	s.Routing.HubCandidates = 24
	return s
}

// ChurnSpec is the dynamic-network scenario.
func ChurnSpec() Spec {
	s := SmallSpec()
	s.Name = "churn"
	s.Description = "dynamic network: small-scale topology under churn, depletion repair and demand drift"
	s.Seed = 4
	s.Workload.Rate = 100
	s.Workload.Duration = 8
	// The dynamics driver owns the demand process; the circulation knob
	// belongs to the static trace generator and must be unset here.
	s.Workload.CirculationFraction = 0
	s.Dynamics = &DynamicsSpec{ChurnRate: 0}
	return s
}

// attackBase is the shared base of the three attack scenarios: the churn
// scenario's topology and demand with a quiet structural timeline
// (churn rate 0), so the attack is the only perturbation — the dynamics
// block stays armed for the panel's Splicer(online) recovery variant.
func attackBase() Spec {
	s := ChurnSpec()
	s.Dynamics = &DynamicsSpec{ChurnRate: 0}
	return s
}

// JammingSpec is the HTLC channel-jamming scenario: attacker nodes issue
// payments that lock value along paths and withhold the preimage until
// timeout, exhausting the per-direction HTLC slots the routing spec caps.
func JammingSpec() Spec {
	s := attackBase()
	s.Name = "jamming"
	s.Description = "HTLC jamming: attacker-held payments exhaust channel slots; TSR/delay vs adversarial rate (tx/s)"
	s.Seed = 13
	s.Routing.MaxInFlightTUs = 40
	s.Attack = &AttackSpec{Type: "jamming", Start: 1, Duration: 4, HoldTime: 2}
	return s
}

// FlashCrowdSpec is the demand-shock scenario: the arrival rate targeting
// one region of the network spikes to Intensity× the base rate.
func FlashCrowdSpec() Spec {
	s := attackBase()
	s.Name = "flash-crowd"
	s.Description = "flash crowd: arrival-rate spike (up to ~100x) on one region; TSR/delay vs spike factor"
	s.Seed = 14
	s.Attack = &AttackSpec{Type: "flash-crowd", Start: 2, Duration: 2, RegionFraction: 0.2}
	return s
}

// HubOutageSpec is the correlated-failure scenario: the top-k placement
// hubs depart simultaneously and recover after an interval.
func HubOutageSpec() Spec {
	s := attackBase()
	s.Name = "hub-outage"
	s.Description = "correlated hub outage: top-k placement hubs depart at once, recover after 3 s; TSR/delay vs k"
	s.Seed = 15
	s.Attack = &AttackSpec{Type: "hub-outage", Start: 2, RecoverAfter: 3}
	return s
}

// DefaultRetrySpec is the retry-resilience panel's armed configuration:
// max_attempts 3 (the first send plus two retries) with the reliability
// layer's default backoff/decay/exclusion knobs.
func DefaultRetrySpec() *RetrySpec {
	return &RetrySpec{MaxAttempts: 3}
}

// RetryJammingSpec, RetryFlashCrowdSpec and RetryHubOutageSpec are the three
// retry-resilience scenarios: the PR-8 attack cells at one representative
// intensity each, with the failure-aware retry layer armed. The panel runs
// each scheme with retries off and on, so the recovered TSR is read directly
// off adjacent columns.
func RetryJammingSpec() Spec {
	s := JammingSpec()
	s.Name = "retry-jamming"
	s.Description = "retry resilience under HTLC jamming (20 tx/s adversarial): recovered TSR per scheme, retries off vs on"
	s.Attack.Intensity = 20
	s.Routing.Retry = DefaultRetrySpec()
	return s
}

func RetryFlashCrowdSpec() Spec {
	s := FlashCrowdSpec()
	s.Name = "retry-flash-crowd"
	s.Description = "retry resilience under a 30x flash crowd: recovered TSR per scheme, retries off vs on"
	s.Attack.Intensity = 30
	s.Routing.Retry = DefaultRetrySpec()
	return s
}

func RetryHubOutageSpec() Spec {
	s := HubOutageSpec()
	s.Name = "retry-hub-outage"
	s.Description = "retry resilience under a top-4 hub outage: recovered TSR per scheme, retries off vs on"
	s.Attack.Intensity = 4
	s.Routing.Retry = DefaultRetrySpec()
	return s
}

// XLScaleSpec is the extreme-scale series (20k-100k nodes): scale-free
// growth (Watts–Strogatz rewiring is quadratic in the ring at these sizes,
// Barabási–Albert is not), a thin workload so path computation rather than
// payment volume dominates, and the hub-label routing tier on — the
// configuration the CSR-first graph core and precomputation exist for.
func XLScaleSpec() Spec {
	return Spec{
		Name:        "scale-xl",
		Description: "extreme scale: 20k-100k-node Barabasi-Albert, hub-label routing, thin workload",
		Seed:        11,
		Topology: TopologySpec{
			Type: TopoBarabasiAlbert, Nodes: 20000, AttachEdges: 3, ChannelScale: 1,
		},
		Workload: WorkloadSpec{
			Type: WorkSynthetic, Rate: 60, Duration: 2, Timeout: 3,
			ZipfSkew: 0.8, ValueScale: 1, CirculationFraction: 0.25,
		},
		Routing: RoutingSpec{HubCandidates: 24, Override: "hub-labels"},
	}
}

// XLSchemes is the scheme set for the extreme-scale series: the hub scheme
// the precomputation serves, the landmark scheme whose detour tails it
// serves, and the single-path baseline. (Spider/Flash's per-payment k-path
// searches at 100k nodes dominate runtime without informing the scaling
// story.)
func XLSchemes() []string {
	return []string{"Splicer", "Landmark", "ShortestPath"}
}

// MainnetSpec runs the scheme comparison on the mainnet-size snapshot asset
// (~15k nodes / ~80k channels) — the first-class "real topology" scenario.
func MainnetSpec() Spec {
	return Spec{
		Name:        "ln-mainnet",
		Description: "Lightning-mainnet-size snapshot (~15k nodes, ~80k channels), hub-label routing",
		Seed:        12,
		Topology:    TopologySpec{Type: TopoSnapshot, Snapshot: "builtin:ln-mainnet", ChannelScale: 1},
		Workload: WorkloadSpec{
			Type: WorkSynthetic, Rate: 150, Duration: 3, Timeout: 3,
			ZipfSkew: 0.8, ValueScale: 1, CirculationFraction: 0.25,
		},
		Routing: RoutingSpec{HubCandidates: 24, Override: "hub-labels"},
	}
}

// ReplaySnapshotSpec replays a captured trace over a snapshot topology: both
// the graph and the payments come from checked-in CSV fixtures rather than
// generators — the template for running real captured data.
func ReplaySnapshotSpec() Spec {
	return Spec{
		Name:        "replay-snapshot",
		Description: "trace replay on a snapshot topology: 80-node scale-free LN-like graph, 5 s captured trace",
		Seed:        6,
		Topology:    TopologySpec{Type: TopoSnapshot, Snapshot: "builtin:ln-small", ChannelScale: 1},
		Workload:    WorkloadSpec{Type: WorkReplay, Trace: "builtin:replay-small", Timeout: 3},
		Routing:     RoutingSpec{HubCandidates: 8},
	}
}

// BurstyHubSpokeSpec runs bursty on-off demand over a hierarchical hub-spoke
// topology: leaf clients behind mid-tier hubs behind a funded core backbone,
// with ~3x arrival bursts against a near-idle baseline.
func BurstyHubSpokeSpec() Spec {
	return Spec{
		Name:        "bursty-hubspoke",
		Description: "bursty on-off arrivals (3x bursts) on a 3-core hierarchical hub-spoke network, leaf-only demand",
		Seed:        7,
		Topology: TopologySpec{
			Type: TopoHubSpoke, Cores: 3, HubsPerCore: 3, ClientsPerHub: 10,
			CoreCapScale: 8, HubCapScale: 4, ChannelScale: 1,
		},
		Workload: WorkloadSpec{
			Type: WorkSynthetic, Rate: 80, Duration: 8, Timeout: 3,
			ZipfSkew: 0.8, ValueScale: 1, CirculationFraction: 0.25,
			ExcludeHubTier: true,
			OnOff:          &OnOffSpec{MeanOn: 1, MeanOff: 1.5, OnFactor: 3, OffFactor: 0.2},
		},
		Routing: RoutingSpec{HubCandidates: 8},
	}
}

// Kind selects an entry's runner shape.
type Kind int

// Entry kinds.
const (
	// KindFigure sweeps Axis over Schemes and reports Metric per point.
	KindFigure Kind = iota + 1
	// KindChurn is the churn panel (TSR + delay, schemes + online variant).
	KindChurn
	// KindBalanceCost / KindTradeoff / KindHubCount / KindDelayOverhead are
	// the Fig. 9 placement panels over Omegas.
	KindBalanceCost
	KindTradeoff
	KindHubCount
	KindDelayOverhead
	// KindStatic renders a fixed table (Table I).
	KindStatic
	// KindRoutingChoices is the Table II study over Base (small) and
	// BaseLarge.
	KindRoutingChoices
	// KindSchemeTable runs the base spec once per scheme (standalone
	// scenarios).
	KindSchemeTable
	// KindAttack is the resilience panel (TSR + delay vs attack intensity,
	// schemes + online variant).
	KindAttack
	// KindRetry is the retry-resilience panel: every scheme runs the attacked
	// cell with retries off and on, quantifying the TSR the failure-aware
	// retry layer recovers (plus a per-variant failure-reason breakdown).
	KindRetry
)

// Entry is one named, runnable scenario.
type Entry struct {
	Name        string
	Title       string
	Description string
	Kind        Kind
	Base        Spec
	// XLabel is the CSV x-column of figure and panel entries.
	XLabel string
	// Axis, Schemes, Metric parameterize KindFigure (Axis.Values also feeds
	// KindChurn).
	Axis    Axis
	Schemes []string
	Metric  Metric
	// Omegas feeds the placement panels.
	Omegas []float64
	// BaseLarge and Choices feed KindRoutingChoices.
	BaseLarge *Spec
	Choices   *ChoicesOptions
	// Static produces KindStatic's table.
	Static func() Table
}

// Run executes the entry and renders its table.
func (e *Entry) Run(opts RunOptions) (Table, error) {
	switch e.Kind {
	case KindFigure:
		series, err := RunFigure(e.Base, e.Axis, e.Schemes, e.Metric, opts)
		if err != nil {
			return Table{}, err
		}
		return SeriesTable(e.Title, e.XLabel, series), nil
	case KindChurn:
		tsr, delay, err := RunChurnPanel(e.Base, e.Axis.Values, e.Schemes, opts)
		if err != nil {
			return Table{}, err
		}
		return PanelTable(e.Title, e.XLabel, tsr, delay), nil
	case KindBalanceCost:
		series, err := BalanceCostSeries(e.Base, e.Omegas, opts)
		if err != nil {
			return Table{}, err
		}
		return SeriesTable(e.Title, "omega", series), nil
	case KindTradeoff:
		pts, err := CostTradeoff(e.Base, e.Omegas, opts)
		if err != nil {
			return Table{}, err
		}
		return TradeoffTable(e.Title, pts), nil
	case KindHubCount:
		s, err := HubCount(e.Base, e.Omegas, opts)
		if err != nil {
			return Table{}, err
		}
		return SeriesTable(e.Title, "omega", []Series{s}), nil
	case KindDelayOverhead:
		pts, err := DelayOverhead(e.Base, e.Omegas, opts)
		if err != nil {
			return Table{}, err
		}
		return DelayOverheadTable(e.Title, pts), nil
	case KindStatic:
		return e.Static(), nil
	case KindRoutingChoices:
		var choices ChoicesOptions
		if e.Choices != nil {
			choices = *e.Choices
		}
		rows, err := RoutingChoices(e.Base, *e.BaseLarge, choices, opts)
		if err != nil {
			return Table{}, err
		}
		return TableIITable(rows), nil
	case KindSchemeTable:
		return SchemeTable(e.Base, e.Schemes, opts)
	case KindAttack:
		tsr, delay, err := RunAttackPanel(e.Base, e.Axis.Values, e.Schemes, opts)
		if err != nil {
			return Table{}, err
		}
		return PanelTable(e.Title, e.XLabel, tsr, delay), nil
	case KindRetry:
		tsr, delay, reasons, err := RunRetryPanel(e.Base, e.Axis.Values, e.Schemes, opts)
		if err != nil {
			return Table{}, err
		}
		return PanelTable(e.Title, e.XLabel, tsr, delay, reasons...), nil
	default:
		return Table{}, fmt.Errorf("scenario: entry %q has unknown kind %d", e.Name, e.Kind)
	}
}

// TableI reproduces the paper's qualitative property matrix (Table I):
// which scheme family offers which property. Static by construction.
func TableI() Table {
	yes, no := "✓", "—"
	return Table{
		Title: "Table I: state-of-the-art PCN scalable schemes",
		Header: []string{
			"Property",
			"Lightning/Raiden", "Flare/Sprites", "REVIVE", "Spider", "Flash",
			"TumbleBit", "A2L", "Perun", "Commit-Chains", "Splicer",
		},
		Rows: [][]string{
			{"Improving throughput", no, no, yes, yes, yes, no, no, yes, yes, yes},
			{"Support large transactions", no, no, no, yes, yes, no, no, no, no, yes},
			{"Payment channel balance", no, no, yes, yes, no, no, no, no, no, yes},
			{"Deadlock-free routing", no, no, no, yes, no, no, no, no, no, yes},
			{"Transaction unlinkability", no, no, no, no, no, yes, yes, no, yes, yes},
			{"Optimal hub placement", no, no, no, no, no, no, no, no, no, yes},
		},
	}
}

// buildRegistry assembles the entry set.
func buildRegistry() map[string]*Entry {
	small, large, scale, churn := SmallSpec(), LargeSpec(), ScaleSpec(), ChurnSpec()
	largeCopy := large
	figure := func(name, title, param string, values []float64, base Spec, metric Metric) *Entry {
		return &Entry{
			Name: name, Title: title, Kind: KindFigure, Base: base,
			XLabel: param, Axis: Axis{Param: param, Values: values},
			Schemes: DefaultSchemes(), Metric: metric,
			Description: title,
		}
	}
	placementEntry := func(name, title string, kind Kind, base Spec) *Entry {
		return &Entry{
			Name: name, Title: title, Kind: kind, Base: base,
			Omegas: OmegaGrid(), Description: title,
		}
	}
	attackEntry := func(name, title string, base Spec, grid []float64) *Entry {
		return &Entry{
			Name: name, Title: title, Kind: KindAttack, Base: base,
			XLabel:  "attack_intensity",
			Axis:    Axis{Param: "attack_intensity", Values: grid},
			Schemes: ChurnSchemes(), Description: base.Description,
		}
	}
	retryEntry := func(name, title string, base Spec) *Entry {
		return &Entry{
			Name: name, Title: title, Kind: KindRetry, Base: base,
			XLabel: "attack_intensity",
			// One representative intensity per attack (the spec carries it):
			// the panel's axis is the off/on column pairs, not the grid.
			Axis:    Axis{Param: "attack_intensity", Values: []float64{base.Attack.Intensity}},
			Schemes: ChurnSchemes(), Description: base.Description,
		}
	}
	entries := []*Entry{
		figure("fig7a", "Fig 7(a): TSR vs channel size (small)", "channel_scale", ChannelScaleGrid(), small, MetricTSR),
		figure("fig7b", "Fig 7(b): TSR vs transaction size (small)", "value_scale", ValueScaleGrid(), small, MetricTSR),
		figure("fig7c", "Fig 7(c): TSR vs update time (small)", "tau_ms", TauGridMs(), small, MetricTSR),
		figure("fig7d", "Fig 7(d): normalized throughput vs update time (small)", "tau_ms", TauGridMs(), small, MetricThroughput),
		figure("fig8a", "Fig 8(a): TSR vs channel size (large)", "channel_scale", ChannelScaleGrid(), large, MetricTSR),
		figure("fig8b", "Fig 8(b): TSR vs transaction size (large)", "value_scale", ValueScaleGrid(), large, MetricTSR),
		figure("fig8c", "Fig 8(c): TSR vs update time (large)", "tau_ms", TauGridMs(), large, MetricTSR),
		figure("fig8d", "Fig 8(d): normalized throughput vs update time (large)", "tau_ms", TauGridMs(), large, MetricThroughput),
		figure("figscale", "Scaling: normalized throughput vs |V| (2k-10k nodes)", "nodes", NodeCountGrid(), scale, MetricThroughput),
		{
			Name: "figscale-xl", Title: "Scaling XL: normalized throughput vs |V| (20k-100k nodes)",
			Kind: KindFigure, Base: XLScaleSpec(), XLabel: "nodes",
			Axis:    Axis{Param: "nodes", Values: XLNodeCountGrid()},
			Schemes: XLSchemes(), Metric: MetricThroughput,
			Description: XLScaleSpec().Description,
		},
		{
			Name: "figchurn", Title: "Churn: TSR and delay vs churn rate (dynamic network)",
			Kind: KindChurn, Base: churn, XLabel: "churn_rate",
			Axis:        Axis{Param: "churn_rate", Values: ChurnRateGrid()},
			Schemes:     ChurnSchemes(),
			Description: "dynamic-network panel: six schemes + Splicer(online) under structural churn",
		},
		placementEntry("fig9a", "Fig 9(a): balance cost vs omega (small)", KindBalanceCost, small),
		placementEntry("fig9b", "Fig 9(b): cost tradeoff (small)", KindTradeoff, small),
		placementEntry("fig9c", "Fig 9(c): smooth nodes vs omega (small)", KindHubCount, small),
		placementEntry("fig9d", "Fig 9(d): smooth nodes vs omega (large)", KindHubCount, large),
		placementEntry("fig9e", "Fig 9(e): delay vs overhead (small)", KindDelayOverhead, small),
		placementEntry("fig9f", "Fig 9(f): delay vs overhead (large)", KindDelayOverhead, large),
		{
			Name: "table1", Title: "Table I: state-of-the-art PCN scalable schemes",
			Kind: KindStatic, Static: TableI,
			Description: "qualitative property matrix (static)",
		},
		{
			Name: "table2", Title: "Table II: influence of routing choices on Splicer's TSR",
			Kind: KindRoutingChoices, Base: small, BaseLarge: &largeCopy,
			Description: "routing-choice study: path type x path number x scheduler at both scales",
		},
		{
			Name: "replay-snapshot", Title: "Scenario replay-snapshot: scheme comparison",
			Kind: KindSchemeTable, Base: ReplaySnapshotSpec(), Schemes: DefaultSchemes(),
			Description: ReplaySnapshotSpec().Description,
		},
		{
			Name: "bursty-hubspoke", Title: "Scenario bursty-hubspoke: scheme comparison",
			Kind: KindSchemeTable, Base: BurstyHubSpokeSpec(), Schemes: DefaultSchemes(),
			Description: BurstyHubSpokeSpec().Description,
		},
		{
			Name: "ln-mainnet", Title: "Scenario ln-mainnet: scheme comparison",
			Kind: KindSchemeTable, Base: MainnetSpec(), Schemes: DefaultSchemes(),
			Description: MainnetSpec().Description,
		},
		attackEntry("jamming", "Resilience: TSR and delay vs HTLC-jamming rate", JammingSpec(), JammingRateGrid()),
		attackEntry("flash-crowd", "Resilience: TSR and delay vs flash-crowd spike factor", FlashCrowdSpec(), SpikeFactorGrid()),
		attackEntry("hub-outage", "Resilience: TSR and delay vs correlated hub outages (top-k)", HubOutageSpec(), HubOutageGrid()),
		retryEntry("retry-jamming", "Retry resilience: recovered TSR under HTLC jamming (20 tx/s)", RetryJammingSpec()),
		retryEntry("retry-flash-crowd", "Retry resilience: recovered TSR under a 30x flash crowd", RetryFlashCrowdSpec()),
		retryEntry("retry-hub-outage", "Retry resilience: recovered TSR under a top-4 hub outage", RetryHubOutageSpec()),
	}
	reg := make(map[string]*Entry, len(entries))
	for _, e := range entries {
		if _, dup := reg[e.Name]; dup {
			panic(fmt.Sprintf("scenario: duplicate registry entry %q", e.Name))
		}
		reg[e.Name] = e
	}
	return reg
}

var registry = buildRegistry()

// Lookup returns the named entry.
func Lookup(name string) (*Entry, bool) {
	e, ok := registry[name]
	return e, ok
}

// Names lists the registered entry names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
