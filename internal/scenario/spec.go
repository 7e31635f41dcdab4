// Package scenario is the declarative experiment layer of the Splicer
// reproduction: a Spec describes one fully seeded simulation cell — a
// topology generator, a workload (synthetic, bursty, or a replayed trace),
// optional network dynamics, a routing scheme and its knobs — as plain data
// (JSON-loadable), and the engine turns Specs into sweep cells, figure
// panels and tables. The registry (registry.go) reconstructs every figure
// and table of the paper's evaluation as a named entry over these Specs, so
// a new workload is a config file rather than a new Go experiment runner.
//
// Determinism contract: a Spec is a pure function of its Seed. The build
// pipeline derives child rng streams in a fixed label order — Split(1) for
// channel sizes, Split(2) for the topology generator, Split(3) for the
// synthetic workload, Split(4) for the dynamics driver, Split(5) for the
// attack injector (drawn only when an attack block is armed), Split(6) for
// the retry backoff jitter (drawn only when a routing.retry block is armed,
// and always last, so arming retries shifts no earlier stream), Split(9) for
// analytical hop sampling — matching the hand-wired experiment runners the
// engine replaced, so registry output stays byte-identical to the historical
// CSVs (pinned by the golden-fixture conformance test).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"github.com/splicer-pcn/splicer/internal/attack"
	"github.com/splicer-pcn/splicer/internal/channel"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/reliability"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// Topology generator type names.
const (
	TopoWattsStrogatz  = "watts-strogatz"
	TopoBarabasiAlbert = "barabasi-albert"
	TopoErdosRenyi     = "erdos-renyi"
	TopoHubSpoke       = "hub-spoke"
	TopoSnapshot       = "snapshot"
)

// Workload type names.
const (
	WorkSynthetic = "synthetic"
	WorkReplay    = "replay"
)

// Spec declares one simulation cell. The zero values of optional fields
// resolve to the paper's §V-A defaults (see normalize).
type Spec struct {
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`
	// Seed makes the whole cell reproducible; every random component derives
	// from it.
	Seed uint64 `json:"seed"`
	// Scheme is the routing scheme ("Splicer", "Spider", "Flash",
	// "Landmark", "A2L", "ShortestPath"). Sweep entries override it per
	// cell; a standalone run requires it.
	Scheme   string        `json:"scheme,omitempty"`
	Topology TopologySpec  `json:"topology"`
	Workload WorkloadSpec  `json:"workload"`
	Dynamics *DynamicsSpec `json:"dynamics,omitempty"`
	Attack   *AttackSpec   `json:"attack,omitempty"`
	Routing  RoutingSpec   `json:"routing,omitempty"`
}

// TopologySpec selects and parameterizes the channel-graph generator.
type TopologySpec struct {
	Type string `json:"type"`
	// Nodes is the network size (generators except hub-spoke/snapshot).
	Nodes int `json:"nodes,omitempty"`
	// ChannelScale multiplies the LN-calibrated channel size distribution
	// (default 1).
	ChannelScale float64 `json:"channel_scale,omitempty"`
	// Degree and Beta parameterize Watts–Strogatz (defaults 4, 0.25).
	Degree int     `json:"degree,omitempty"`
	Beta   float64 `json:"beta,omitempty"`
	// AttachEdges is Barabási–Albert's m (edges per new node).
	AttachEdges int `json:"attach_edges,omitempty"`
	// EdgeProb is Erdős–Rényi's p.
	EdgeProb float64 `json:"edge_prob,omitempty"`
	// Cores / HubsPerCore / ClientsPerHub shape the hierarchical hub-spoke
	// generator; CoreCapScale and HubCapScale multiply the channel-size
	// distribution for backbone and mid-tier links (defaults 8 and 4).
	Cores         int     `json:"cores,omitempty"`
	HubsPerCore   int     `json:"hubs_per_core,omitempty"`
	ClientsPerHub int     `json:"clients_per_hub,omitempty"`
	CoreCapScale  float64 `json:"core_cap_scale,omitempty"`
	HubCapScale   float64 `json:"hub_cap_scale,omitempty"`
	// Snapshot names the topology file for type "snapshot": either a path
	// to a snapshot CSV or "builtin:<name>" for a shipped fixture.
	Snapshot string `json:"snapshot,omitempty"`
}

// WorkloadSpec selects and parameterizes the payment trace.
type WorkloadSpec struct {
	Type string `json:"type"`
	// Rate is the aggregate Poisson arrival rate (tx/s), Duration the trace
	// length in seconds (synthetic workloads).
	Rate     float64 `json:"rate,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	// Timeout per payment in seconds (default 3).
	Timeout float64 `json:"timeout,omitempty"`
	// ZipfSkew shapes endpoint popularity; ValueScale multiplies the value
	// distribution (default 1); CirculationFraction injects the §II-B
	// deadlock pattern.
	ZipfSkew            float64 `json:"zipf_skew,omitempty"`
	ValueScale          float64 `json:"value_scale,omitempty"`
	CirculationFraction float64 `json:"circulation_fraction,omitempty"`
	// ExcludeHubTier drops the topology's hub-tier nodes (hub-spoke cores
	// and mid-tier hubs) from the client set, so demand originates at the
	// leaves only.
	ExcludeHubTier bool `json:"exclude_hub_tier,omitempty"`
	// OnOff switches arrivals to the bursty on-off modulated process.
	OnOff *OnOffSpec `json:"on_off,omitempty"`
	// Trace names the replayed trace for type "replay": a trace CSV path or
	// "builtin:<name>".
	Trace string `json:"trace,omitempty"`
}

// OnOffSpec mirrors workload.OnOffConfig.
type OnOffSpec struct {
	MeanOn    float64 `json:"mean_on"`
	MeanOff   float64 `json:"mean_off"`
	OnFactor  float64 `json:"on_factor"`
	OffFactor float64 `json:"off_factor"`
}

// DynamicsSpec switches the cell from a static trace run to a dynamic
// (churn-driven) run. Every knob not listed here follows
// dynamics.NewConfig's moderate defaults.
type DynamicsSpec struct {
	// ChurnRate drives all five structural processes (node join/leave,
	// channel open/close/top-up) at this many events/sec. 0 keeps the
	// topology static while demand stays diurnal and drifting.
	ChurnRate float64 `json:"churn_rate"`
	// ReplaceInterval re-runs Splicer's hub placement online every interval
	// (seconds; 0 keeps the initial placement).
	ReplaceInterval float64 `json:"replace_interval,omitempty"`
}

// AttackSpec arms the cell with one adversarial/stress injector from
// internal/attack. Intensity is the generic swept knob ("attack_intensity"
// axis); it maps per type — jamming: aggregate adversarial rate (tx/s),
// flash-crowd: spike factor over the base rate, hub-outage: top-k hubs
// struck. Unset parameters follow attack.Config's documented defaults.
type AttackSpec struct {
	// Type is the attack kind: "jamming", "flash-crowd" or "hub-outage".
	Type string `json:"type"`
	// Intensity is the swept attack strength (see above).
	Intensity float64 `json:"intensity,omitempty"`
	// Start and Duration bound the attack window in seconds (hub outages
	// strike once at Start).
	Start    float64 `json:"start,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	// Attackers, HoldTime, Value parameterize jamming: attacker node count,
	// preimage-withholding time (s) and payment value.
	Attackers int     `json:"attackers,omitempty"`
	HoldTime  float64 `json:"hold_time,omitempty"`
	Value     float64 `json:"value,omitempty"`
	// RegionFraction is the flash crowd's target-region size.
	RegionFraction float64 `json:"region_fraction,omitempty"`
	// RecoverAfter rejoins struck hubs this many seconds after the outage
	// (0: no recovery).
	RecoverAfter float64 `json:"recover_after,omitempty"`
}

// RoutingSpec overrides pcn.Config knobs; zero values keep the paper's
// defaults from pcn.NewConfig.
type RoutingSpec struct {
	NumPaths       int     `json:"num_paths,omitempty"`
	PathType       string  `json:"path_type,omitempty"`
	Scheduler      string  `json:"scheduler,omitempty"`
	UpdateTauMs    float64 `json:"update_tau_ms,omitempty"`
	HubCandidates  int     `json:"hub_candidates,omitempty"`
	PlacementOmega float64 `json:"placement_omega,omitempty"`
	// Override selects the route-computation backend: "" or "exact" for the
	// exact PathFinder, "hub-labels" for the precomputed hub-label tier
	// (byte-identical results; a performance knob for hub-heavy cells).
	Override string `json:"override,omitempty"`
	// MaxInFlightTUs caps concurrently locked TUs per channel direction
	// (Lightning's max_accepted_htlcs — the resource HTLC jamming exhausts);
	// 0 keeps the paper's unlimited setting.
	MaxInFlightTUs int `json:"max_in_flight_tus,omitempty"`
	// Parallelism is the number of route-planning workers inside each cell
	// (pcn.Config.Parallelism): 0 (default) takes the cell's share of the
	// spare cores — all of them for a lone cell, GOMAXPROCS / sweep workers
	// inside a sweep — 1 runs the cell serially, n >= 2 pins n workers.
	// Outputs are byte-identical at any value.
	Parallelism int `json:"parallelism,omitempty"`
	// Retry arms the failure-aware retry layer (internal/reliability). Absent
	// or unarmed, the cell is byte-identical to the retry-less simulator.
	Retry *RetrySpec `json:"retry,omitempty"`
}

// RetrySpec mirrors reliability.Config with spec-idiomatic millisecond
// durations. MaxAttempts must be >= 2 when the block is present (an armed
// block that disables retries is almost certainly a typo); omit the block to
// run without retries.
type RetrySpec struct {
	// MaxAttempts is the total send budget per TU, first attempt included.
	MaxAttempts int `json:"max_attempts"`
	// BackoffMs is the base re-send delay; attempt i waits i·backoff plus
	// jitter (default 50).
	BackoffMs float64 `json:"backoff_ms,omitempty"`
	// HalfLifeMs is the penalty decay half-life (default 2000).
	HalfLifeMs float64 `json:"half_life_ms,omitempty"`
	// ExclusionMs is the hard-exclusion window after a failure (default 500).
	ExclusionMs float64 `json:"exclusion_ms,omitempty"`
	// PenaltyWeight inflates a penalized edge's unit cost (default 4).
	PenaltyWeight float64 `json:"penalty_weight,omitempty"`
}

// config maps the retry block onto a reliability.Config (ms → seconds). The
// jitter stream seed is a placeholder: the build pipeline replaces it with
// the spec source's Split(6).
func (r *RetrySpec) config() reliability.Config {
	if r == nil {
		return reliability.Config{}
	}
	return reliability.Config{
		MaxAttempts:   r.MaxAttempts,
		Backoff:       r.BackoffMs / 1000,
		HalfLife:      r.HalfLifeMs / 1000,
		Exclusion:     r.ExclusionMs / 1000,
		PenaltyWeight: r.PenaltyWeight,
	}
}

// normalize fills documented defaults into a copy of the spec.
func (s Spec) normalize() Spec {
	if s.Topology.ChannelScale == 0 {
		s.Topology.ChannelScale = 1
	}
	if s.Topology.Type == TopoWattsStrogatz {
		if s.Topology.Degree == 0 {
			s.Topology.Degree = 4
		}
		if s.Topology.Beta == 0 {
			s.Topology.Beta = 0.25
		}
	}
	if s.Topology.Type == TopoHubSpoke {
		if s.Topology.CoreCapScale == 0 {
			s.Topology.CoreCapScale = 8
		}
		if s.Topology.HubCapScale == 0 {
			s.Topology.HubCapScale = 4
		}
	}
	if s.Workload.Type == "" {
		s.Workload.Type = WorkSynthetic
	}
	if s.Workload.Timeout == 0 {
		s.Workload.Timeout = 3
	}
	if s.Workload.ValueScale == 0 {
		s.Workload.ValueScale = 1
	}
	return s
}

// Validate checks the spec. It validates structure only; generator-level
// constraints (e.g. Watts–Strogatz degree bounds) surface at build time.
func (s Spec) Validate() error {
	s = s.normalize()
	if s.Scheme != "" {
		if _, err := pcn.SchemeByName(s.Scheme); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	switch s.Topology.Type {
	case TopoWattsStrogatz, TopoBarabasiAlbert, TopoErdosRenyi:
		if s.Topology.Nodes < 3 {
			return fmt.Errorf("scenario: topology %q needs nodes >= 3, got %d", s.Topology.Type, s.Topology.Nodes)
		}
		if s.Topology.Type == TopoBarabasiAlbert && s.Topology.AttachEdges < 1 {
			return fmt.Errorf("scenario: barabasi-albert needs attach_edges >= 1")
		}
		if s.Topology.Type == TopoErdosRenyi && (s.Topology.EdgeProb <= 0 || s.Topology.EdgeProb > 1) {
			return fmt.Errorf("scenario: erdos-renyi needs edge_prob in (0,1], got %v", s.Topology.EdgeProb)
		}
	case TopoHubSpoke:
		if s.Topology.Cores < 1 || s.Topology.HubsPerCore < 1 || s.Topology.ClientsPerHub < 1 {
			return fmt.Errorf("scenario: hub-spoke needs cores, hubs_per_core and clients_per_hub >= 1")
		}
	case TopoSnapshot:
		if s.Topology.Snapshot == "" {
			return fmt.Errorf("scenario: snapshot topology needs a snapshot file reference")
		}
	default:
		return fmt.Errorf("scenario: unknown topology type %q", s.Topology.Type)
	}
	if s.Topology.ChannelScale <= 0 {
		return fmt.Errorf("scenario: channel_scale must be positive, got %v", s.Topology.ChannelScale)
	}
	switch s.Workload.Type {
	case WorkSynthetic:
		if s.Workload.Rate <= 0 || s.Workload.Duration <= 0 {
			return fmt.Errorf("scenario: synthetic workload needs positive rate and duration")
		}
		if s.Workload.OnOff != nil {
			if err := s.Workload.OnOff.config().Validate(); err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
		}
	case WorkReplay:
		if s.Workload.Trace == "" {
			return fmt.Errorf("scenario: replay workload needs a trace file reference")
		}
		if s.Dynamics != nil {
			return fmt.Errorf("scenario: replay workloads cannot drive a dynamic run (dynamics resolves endpoints against the live node set)")
		}
	default:
		return fmt.Errorf("scenario: unknown workload type %q", s.Workload.Type)
	}
	if s.Dynamics != nil {
		if s.Dynamics.ChurnRate < 0 {
			return fmt.Errorf("scenario: churn_rate must be >= 0, got %v", s.Dynamics.ChurnRate)
		}
		if s.Dynamics.ReplaceInterval < 0 {
			return fmt.Errorf("scenario: replace_interval must be >= 0, got %v", s.Dynamics.ReplaceInterval)
		}
		// The dynamics driver replaces the synthetic trace generator with
		// its own live demand process (diurnal thinning + hotspot drift over
		// the active node set), so trace-generator-only knobs would be
		// silently ignored — reject them instead.
		switch {
		case s.Workload.OnOff != nil:
			return fmt.Errorf("scenario: on_off arrivals are not applicable to a dynamic run (the dynamics demand process replaces the trace generator)")
		case s.Workload.ExcludeHubTier:
			return fmt.Errorf("scenario: exclude_hub_tier is not applicable to a dynamic run (dynamics resolves endpoints against the live node set)")
		case s.Workload.CirculationFraction != 0:
			return fmt.Errorf("scenario: circulation_fraction is not applicable to a dynamic run (the dynamics demand process replaces the trace generator)")
		}
	}
	if s.Attack != nil {
		if s.Workload.Type != WorkSynthetic {
			return fmt.Errorf("scenario: attacks require a synthetic workload (the injector derives its value and deadline rule from the workload block)")
		}
		if s.Attack.Intensity < 0 {
			return fmt.Errorf("scenario: attack intensity must be >= 0, got %v", s.Attack.Intensity)
		}
		if err := s.attackConfig().Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.Routing.PathType != "" {
		if _, err := routing.PathTypeByName(s.Routing.PathType); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.Routing.Scheduler != "" {
		if _, err := channel.SchedulerByName(s.Routing.Scheduler); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.Routing.NumPaths < 0 || s.Routing.UpdateTauMs < 0 || s.Routing.HubCandidates < 0 ||
		s.Routing.PlacementOmega < 0 || s.Routing.MaxInFlightTUs < 0 || s.Routing.Parallelism < 0 {
		return fmt.Errorf("scenario: routing overrides must be >= 0")
	}
	if r := s.Routing.Retry; r != nil {
		if r.MaxAttempts < 2 {
			return fmt.Errorf("scenario: routing.retry needs max_attempts >= 2 (got %d); omit the block to disable retries", r.MaxAttempts)
		}
		if err := r.config().Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if _, err := routingOverrideByName(s.Routing.Override); err != nil {
		return err
	}
	return nil
}

// routingOverrideByName maps the spec's override name to the pcn constant.
func routingOverrideByName(name string) (pcn.RoutingOverride, error) {
	switch name {
	case "", "exact":
		return pcn.RoutingExact, nil
	case "hub-labels":
		return pcn.RoutingHubLabels, nil
	}
	return 0, fmt.Errorf("scenario: unknown routing override %q (want \"exact\" or \"hub-labels\")", name)
}

// config maps the spec onto a pcn.Config for the given scheme, mirroring the
// historical runners: paper defaults first, then the spec's overrides.
// planners is the share of the cores the caller grants the cell (0: all);
// it applies only where neither the spec nor ForceParallelism fixes a width.
func (s Spec) config(scheme pcn.Scheme, planners int) (pcn.Config, error) {
	cfg := pcn.NewConfig(scheme)
	r := s.Routing
	if r.HubCandidates > 0 {
		cfg.NumHubCandidates = r.HubCandidates
	}
	if r.NumPaths > 0 {
		cfg.NumPaths = r.NumPaths
	}
	if r.PathType != "" {
		pt, err := routing.PathTypeByName(r.PathType)
		if err != nil {
			return pcn.Config{}, err
		}
		cfg.PathType = pt
	}
	if r.Scheduler != "" {
		sched, err := channel.SchedulerByName(r.Scheduler)
		if err != nil {
			return pcn.Config{}, err
		}
		cfg.Scheduler = sched
	}
	if r.UpdateTauMs > 0 {
		cfg.UpdateTau = r.UpdateTauMs / 1000
	}
	if r.PlacementOmega > 0 {
		cfg.PlacementOmega = r.PlacementOmega
	}
	ov, err := routingOverrideByName(r.Override)
	if err != nil {
		return pcn.Config{}, err
	}
	cfg.RoutingOverride = ov
	if r.MaxInFlightTUs > 0 {
		cfg.MaxInFlightTUs = r.MaxInFlightTUs
	}
	if r.Retry != nil {
		cfg.Retry = r.Retry.config()
	}
	cfg.Parallelism = r.Parallelism
	if forcedParallelism != 0 {
		cfg.Parallelism = forcedParallelism
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = planners
	}
	return cfg, nil
}

// forcedParallelism, when non-zero, replaces every cell's planning width.
var forcedParallelism int

// ForceParallelism pins the planning width of every cell config built until
// the returned restore func runs, over both the spec's own value and the
// sweep's budget: 1 for a serial reference on any host, n >= 2 to exercise
// the pool even where GOMAXPROCS is 1. Byte-identity makes this safe for
// any spec. Test-only; not safe for concurrent use with cell builds.
func ForceParallelism(workers int) (restore func()) {
	prev := forcedParallelism
	forcedParallelism = workers
	return func() { forcedParallelism = prev }
}

// attackConfig maps the spec's attack block onto an attack.Config. The
// generic Intensity knob maps per type (see AttackSpec); the flash crowd
// echoes the workload's rate, value scale and timeout so spike payments
// follow the base demand's distributions.
func (s Spec) attackConfig() attack.Config {
	n := s.normalize()
	a := n.Attack
	cfg := attack.Config{
		Kind:           attack.Kind(a.Type),
		Start:          a.Start,
		Duration:       a.Duration,
		Attackers:      a.Attackers,
		HoldTime:       a.HoldTime,
		Value:          a.Value,
		RegionFraction: a.RegionFraction,
		RecoverAfter:   a.RecoverAfter,
		BaseRate:       n.Workload.Rate,
		ValueScale:     n.Workload.ValueScale,
		Timeout:        n.Workload.Timeout,
	}
	switch cfg.Kind {
	case attack.KindJamming:
		cfg.Rate = a.Intensity
	case attack.KindFlashCrowd:
		cfg.SpikeFactor = a.Intensity
	case attack.KindHubOutage:
		cfg.TopK = int(a.Intensity + 0.5)
	}
	return cfg
}

// hubCandidates is the candidate-list bound used by the placement panels.
func (s Spec) hubCandidates() int {
	if s.Routing.HubCandidates > 0 {
		return s.Routing.HubCandidates
	}
	return pcn.NewConfig(pcn.SchemeSplicer).NumHubCandidates
}

func (o *OnOffSpec) config() *workload.OnOffConfig {
	if o == nil {
		return nil
	}
	return &workload.OnOffConfig{MeanOn: o.MeanOn, MeanOff: o.MeanOff, OnFactor: o.OnFactor, OffFactor: o.OffFactor}
}

// withParam returns a copy of the spec with the named sweep parameter set to
// x. Parameters are the figure x-axes: "channel_scale", "value_scale",
// "tau_ms", "nodes", "churn_rate", "attack_intensity"; "" is the identity
// (single-cell entries).
func (s Spec) withParam(param string, x float64) (Spec, error) {
	switch param {
	case "":
		return s, nil
	case "channel_scale":
		s.Topology.ChannelScale = x
	case "value_scale":
		s.Workload.ValueScale = x
	case "tau_ms":
		s.Routing.UpdateTauMs = x
	case "nodes":
		s.Topology.Nodes = int(x)
	case "churn_rate":
		if s.Dynamics == nil {
			return s, fmt.Errorf("scenario: churn_rate sweep needs a dynamics block")
		}
		d := *s.Dynamics
		d.ChurnRate = x
		s.Dynamics = &d
	case "attack_intensity":
		if s.Attack == nil {
			return s, fmt.Errorf("scenario: attack_intensity sweep needs an attack block")
		}
		a := *s.Attack
		a.Intensity = x
		s.Attack = &a
	default:
		return s, fmt.Errorf("scenario: unknown sweep parameter %q", param)
	}
	return s, nil
}

// LoadSpec reads and validates a JSON spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	return ParseSpec(data)
}

// ParseSpec parses and validates a JSON spec. Unknown fields are rejected so
// a typoed knob fails instead of silently running the default.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// JSON renders the spec (normalized defaults included) as indented JSON.
func (s Spec) JSON() ([]byte, error) {
	return json.MarshalIndent(s.normalize(), "", "  ")
}
