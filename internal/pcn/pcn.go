// Package pcn assembles the full payment-channel-network simulator: the
// topology with live channel state, the five routing schemes the paper
// compares (Splicer, Spider, Flash, Landmark routing, A2L), the payment/TU
// lifecycle with HTLC locking, the τ-periodic price updates and the window
// congestion controller, and the metrics the evaluation section reports
// (transaction success ratio, normalized throughput, delay, queueing).
//
// The paper's testbed is MATLAB + a modified LND testnet; this package is
// the discrete-event substitute (see DESIGN.md for the substitution table).
package pcn

import (
	"fmt"
	"strings"

	"github.com/splicer-pcn/splicer/internal/channel"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/placement"
	"github.com/splicer-pcn/splicer/internal/reliability"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/sim"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// Scheme identifies a routing scheme under evaluation.
type Scheme int

// The five schemes of Figs. 7-8.
const (
	SchemeSplicer Scheme = iota + 1
	SchemeSpider
	SchemeFlash
	SchemeLandmark
	SchemeA2L
	// SchemeShortestPath is the naive single-shortest-path HTLC baseline
	// (not in the paper's figures; used by tests and the deadlock example).
	SchemeShortestPath
)

func (s Scheme) String() string {
	if r, ok := lookupScheme(s); ok {
		return r.name
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// SchemeByName parses a scheme name against the policy registry.
func SchemeByName(name string) (Scheme, error) {
	for _, s := range registeredSchemes() {
		if r, ok := lookupScheme(s); ok && r.name == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("pcn: unknown scheme %q", name)
}

// RoutingOverride selects the backend answering the schemes' unit-weight
// shortest-path queries. The answers are byte-identical either way (the
// hub-label tier serves only hub-rooted queries, with exact fallback), so
// the override is purely a performance knob — golden panels do not move.
type RoutingOverride int

const (
	// RoutingExact computes every query with the exact PathFinder (default).
	RoutingExact RoutingOverride = iota
	// RoutingHubLabels serves hub-rooted queries from precomputed per-hub
	// shortest-path trees (graph.HubLabels), repaired incrementally under
	// churn, and falls back to the exact finder for everything else.
	RoutingHubLabels
)

func (r RoutingOverride) String() string {
	switch r {
	case RoutingExact:
		return "exact"
	case RoutingHubLabels:
		return "hub-labels"
	}
	return fmt.Sprintf("RoutingOverride(%d)", int(r))
}

// Config parameterizes a simulation. NewConfig supplies the paper's §V-A
// defaults.
type Config struct {
	Scheme Scheme

	// Policy overrides the registry: when non-nil, NewNetwork uses this
	// SchemePolicy instance (which may be a custom or hybrid scheme) instead
	// of instantiating the one registered for Scheme. A policy instance is
	// stateful and must not be shared across networks.
	Policy SchemePolicy

	// NumPaths is k, the number of multi-paths (paper: 5).
	NumPaths int
	// PathType selects the path computation (paper default: EDW).
	PathType routing.PathType
	// RoutingOverride selects the route-computation backend for the
	// unit-weight access/detour queries (default RoutingExact). Results are
	// identical either way; RoutingHubLabels trades precomputation for
	// per-query speed on hub-heavy workloads.
	RoutingOverride RoutingOverride
	// Scheduler orders channel waiting queues (paper default: LIFO).
	Scheduler channel.Scheduler

	// UpdateTau is the price/probe update period τ in seconds (paper: 0.2).
	UpdateTau float64
	// QueueDelayThreshold is T, the queueing-delay mark threshold (0.4 s).
	QueueDelayThreshold float64
	// QueueLimit is the per-direction queue value bound (8000 tokens).
	QueueLimit float64
	// MaxInFlightTUs bounds the simultaneously locked HTLCs per channel
	// direction (Lightning's max_accepted_htlcs slot limit — the resource
	// slot-jamming exhausts); 0 means unlimited, the paper's setting.
	MaxInFlightTUs int

	// Rate/price controller parameters.
	Alpha float64 // rate step α (eq. 26)
	Beta  float64 // window decrement β (paper: 10)
	Gamma float64 // window increment γ (paper: 0.1)
	Kappa float64 // capacity price step κ (eq. 21)
	Eta   float64 // imbalance price step η (eq. 22)
	TFee  float64 // fee threshold T_fee (eq. 24)

	// TU bounds (paper: 1 and 4 tokens).
	MinTU float64
	MaxTU float64

	// InitPathRate seeds each path's sending rate (tokens/sec) before the
	// price feedback converges; InitWindow seeds the congestion window.
	InitPathRate float64
	InitWindow   float64

	// HopDelay is the per-hop forwarding latency in seconds.
	HopDelay float64

	// NumHubCandidates bounds the smooth-node candidate list for Splicer's
	// placement step; Landmark uses NumPaths landmarks; A2L uses 1 hub.
	NumHubCandidates int
	// PlacementOmega is ω for the placement solve.
	PlacementOmega float64
	// Hubs overrides placement with an explicit hub set (optional).
	Hubs []graph.NodeID

	// HubCapitalBoost multiplies the funds on channels incident to a hub
	// when the hub takes the role. The paper: hubs "perform many routes,
	// have larger capital, and thus may have a larger channel size", and
	// actual PCHs must pledge funds for access (§III-B). Applies to Splicer
	// hubs and the A2L tumbler.
	HubCapitalBoost float64
	// HubComputeDelay is the routing-computation service time at a hub per
	// payment (hubs are powerful machines; small).
	HubComputeDelay float64
	// SenderComputeDelayPerNode models source-routing cost at end-user
	// senders: each payment costs SenderComputeDelayPerNode·|V| seconds of
	// serialized sender CPU (Spider, Flash, Landmark, ShortestPath).
	SenderComputeDelayPerNode float64
	// A2LCryptoDelay is the per-payment cryptographic-protocol service time
	// at the A2L tumbler hub (puzzle promise/solver), serialized at the hub.
	A2LCryptoDelay float64

	// FlashElephantThreshold splits Flash's elephant/mice handling.
	FlashElephantThreshold float64
	// FlashMicePaths is the number of precomputed mice paths.
	FlashMicePaths int

	// Parallelism is the number of route-planning workers inside this run
	// (see speculate.go): 0, the default, means the cores this process may
	// use (GOMAXPROCS); 1 runs serially; n >= 2 asks for n workers. A width
	// of 2 or more arms the pool only when the policy can prefetch, and
	// under hub-label routing only when its prefetch stays off the label
	// tier (Splicer, Spider). A sweep running several cells at once hands each
	// cell its share of the cores here (sweep.Run). The committed event
	// stream and every output are byte-identical at any width — this only
	// moves wall-clock.
	Parallelism int

	// Retry arms the failure-aware retry layer (internal/reliability):
	// per-edge penalty learning with time decay, hard exclusion of recently
	// failed hops, and bounded per-TU re-sends within the payment deadline.
	// The zero value (any MaxAttempts <= 1) leaves the payment lifecycle
	// byte-identical to the retry-less simulator — no store, no
	// observations, no extra rng draws.
	Retry reliability.Config
}

// NewConfig returns the paper's default parameters for the given scheme.
func NewConfig(scheme Scheme) Config {
	return Config{
		Scheme:                    scheme,
		NumPaths:                  5,
		PathType:                  routing.EDW,
		Scheduler:                 channel.LIFO{},
		UpdateTau:                 0.2,
		QueueDelayThreshold:       0.4,
		QueueLimit:                8000,
		Alpha:                     0.4,
		Beta:                      10,
		Gamma:                     0.1,
		Kappa:                     0.002,
		Eta:                       0.002,
		TFee:                      0.1,
		MinTU:                     1,
		MaxTU:                     4,
		InitPathRate:              20,
		InitWindow:                8,
		HopDelay:                  0.02,
		NumHubCandidates:          10,
		PlacementOmega:            0.05,
		HubCapitalBoost:           8,
		HubComputeDelay:           0.001,
		SenderComputeDelayPerNode: 0.00002,
		A2LCryptoDelay:            0.04,
		FlashElephantThreshold:    20,
		FlashMicePaths:            3,
	}
}

// Validate checks configuration sanity.
func (c *Config) Validate() error {
	if c.Policy == nil {
		if _, ok := lookupScheme(c.Scheme); !ok {
			return fmt.Errorf("pcn: invalid scheme %d", int(c.Scheme))
		}
	}
	if c.NumPaths <= 0 {
		return fmt.Errorf("pcn: NumPaths must be positive")
	}
	if c.UpdateTau <= 0 || c.HopDelay <= 0 {
		return fmt.Errorf("pcn: UpdateTau and HopDelay must be positive")
	}
	if c.MinTU <= 0 || c.MaxTU < c.MinTU {
		return fmt.Errorf("pcn: invalid TU bounds [%v, %v]", c.MinTU, c.MaxTU)
	}
	if c.Scheduler == nil {
		return fmt.Errorf("pcn: nil scheduler")
	}
	if c.RoutingOverride != RoutingExact && c.RoutingOverride != RoutingHubLabels {
		return fmt.Errorf("pcn: invalid routing override %d", int(c.RoutingOverride))
	}
	if c.MaxInFlightTUs < 0 {
		return fmt.Errorf("pcn: MaxInFlightTUs must be >= 0, got %d", c.MaxInFlightTUs)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("pcn: Parallelism must be >= 0, got %d", c.Parallelism)
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	return nil
}

// pairKey identifies a source-destination pair for path caching and rate
// control.
type pairKey struct{ s, e graph.NodeID }

// Network is a live PCN simulation instance. All scheme-specific behavior is
// delegated to its SchemePolicy; the network owns only the shared
// infrastructure (channels, hub bookkeeping, path cache, rate controllers,
// the event engine and metrics).
type Network struct {
	cfg     Config
	policy  SchemePolicy
	g       *graph.Graph
	chans   []*channel.Channel // indexed by EdgeID
	engine  *sim.Engine
	metrics *sim.Metrics

	hubs  []graph.NodeID
	isHub map[graph.NodeID]bool
	hubOf map[graph.NodeID]graph.NodeID // client → managing hub (Splicer/A2L)
	// departed marks nodes that left the network (dynamics); boosted records
	// channels that already received the hub capital pledge so repeated
	// placements never double-boost.
	departed map[graph.NodeID]bool
	boosted  map[graph.EdgeID]bool
	// routes is the shared route-computation cache (see RouteCache for the
	// invalidation contract); pathFinder is the shared Dijkstra scratch
	// state for cache misses (a Network is single-goroutine, so one finder
	// serves every policy query); pathsFor tracks the path set most
	// recently planned per pair, which the τ-probe loop refreshes prices
	// for.
	routes     *RouteCache
	pathFinder *graph.PathFinder
	pathsFor   map[pairKey][]graph.Path
	rateCtl    map[pairKey]*routing.RateController

	// Hub-label precomputation tier (Config.RoutingOverride ==
	// RoutingHubLabels): labels serves hub-rooted unit queries from per-hub
	// trees. labelSeeds holds policy-registered roots beyond the hub set
	// (Landmark's landmarks); labelGen/rootGen detect root-set changes so
	// SetHubs or a re-placement rebuilds the tier lazily. retiredLabels sums
	// the counters of the tiers those rebuilds replaced, so Result.Label*
	// cover the whole run, not the last placement interval.
	labels        *graph.HubLabels
	labelSeeds    []graph.NodeID
	rootGen       uint64
	labelGen      uint64
	retiredLabels graph.LabelStats

	// Epoch-snapshot store for concurrent readers (see snapshot.go). nil in
	// batch mode; attached by EnableSnapshots. snapRootGen tracks the rootGen
	// the store's label roots were last synced at.
	snapshots   *graph.SnapshotStore
	snapRootGen uint64

	// Serialized compute resources: next-free time per sender (source
	// routing) or per hub.
	cpuFree map[graph.NodeID]float64

	nextTUID uint64

	// hops is the engine lane every TU hop timer takes: each fires HopDelay
	// after its lock, at one priority, so they need a FIFO, not the heap.
	hops *sim.Lane

	// cancelBuf is cancelTx's reusable stack of TUs to abort, and staleBuf
	// the τ tick's reusable MarkStale output.
	cancelBuf []*tuRun
	staleBuf  []*channel.QueuedTU

	// Interned metric handles and the incremental τ-tick registries (see
	// tick.go): the sorted pair registry, the swap-remove active-payment
	// registry with its reusable per-tick snapshot, the tick generation for
	// controller refresh stamps, and the dirty-channel scheduling state.
	mh       metricHandles
	priceFn  func(graph.EdgeID, graph.NodeID) float64
	pairList []pairKey
	activeTx []*txRun
	tickTx   []*txRun
	tickGen  uint64

	chanState  []uint8
	dirtyChans []graph.EdgeID
	tickHeap   edgeHeap
	inTickPass bool
	tickCursor graph.EdgeID

	// Run bookkeeping: payments registered via ScheduleArrival/Arrive, so a
	// dynamically driven run (no upfront trace) summarizes correctly.
	// Adversarial (attacker-issued) payments count separately so TSR and
	// throughput measure honest demand only.
	genCount int
	genValue float64
	advCount int
	advValue float64
	ticking  bool

	// capitalIn is the recorded capital inflow backing the
	// conservation-of-funds invariant (see invariant.go).
	capitalIn float64

	// Failure-aware retry state (see retry.go): both nil/unset unless
	// Config.Retry is armed, so the unarmed lifecycle pays one nil check.
	relStore *reliability.Store
	retryRng *rng.Source

	// Speculative route-planning state (see speculate.go). spec is the
	// per-run worker pool, nil unless planningWorkers arms it; specCtx is
	// non-nil only on a worker's shadow copy of the network, binding
	// planRoutes to that worker's memoizing context.
	spec    *specSession
	specCtx *specWorkerCtx
}

// NewNetwork builds a simulation over graph g under cfg. The graph's edge
// capacities become the channels' initial per-direction balances. For
// Splicer, hubs come from cfg.Hubs or the placement solver.
func NewNetwork(g *graph.Graph, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.NumNodes() < 3 {
		return nil, fmt.Errorf("pcn: need at least 3 nodes, got %d", g.NumNodes())
	}
	policy := cfg.Policy
	if policy == nil {
		var err error
		policy, err = policyFor(cfg.Scheme)
		if err != nil {
			return nil, err
		}
	}
	n := &Network{
		cfg:      cfg,
		policy:   policy,
		g:        g,
		chans:    make([]*channel.Channel, g.NumEdges()),
		engine:   sim.NewEngine(),
		metrics:  sim.NewMetrics(),
		isHub:    map[graph.NodeID]bool{},
		hubOf:    map[graph.NodeID]graph.NodeID{},
		departed: map[graph.NodeID]bool{},
		boosted:  map[graph.EdgeID]bool{},
		routes:   NewRouteCache(),
		pathsFor: map[pairKey][]graph.Path{},
		rateCtl:  map[pairKey]*routing.RateController{},
		cpuFree:  map[graph.NodeID]float64{},
	}
	var err error
	if n.hops, err = n.engine.NewLane(cfg.HopDelay, 3); err != nil {
		return nil, err
	}
	n.initMetricHandles()
	n.priceFn = n.priceOf
	if cfg.Retry.Armed() {
		n.relStore = reliability.NewStore(cfg.Retry)
		n.retryRng = rng.New(cfg.Retry.Seed)
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		ch, err := channel.New(e.ID, e.U, e.V, e.CapFwd, e.CapRev)
		if err != nil {
			return nil, err
		}
		ch.QueueLimit = cfg.QueueLimit
		ch.MaxInFlight = cfg.MaxInFlightTUs
		n.chans[i] = ch
		n.recordCapital(e.CapFwd + e.CapRev)
	}
	if err := n.policy.Setup(n); err != nil {
		return nil, err
	}
	if w := planningWorkers(cfg, n.policy); w > 0 {
		n.spec = newSpecSession(n, n.policy.(RoutePrefetcher), w)
	}
	return n, nil
}

// SetHubs installs the policy's hub set (SchemePolicy.Setup).
func (n *Network) SetHubs(hubs []graph.NodeID) {
	n.hubs = append([]graph.NodeID(nil), hubs...)
	for _, h := range hubs {
		n.isHub[h] = true
	}
	n.rootGen++
}

// AddLabelRoots registers additional hub-label roots (policies with private
// root sets, like Landmark's landmark list). Idempotent root growth; the
// label tier rebuilds lazily on the next query.
func (n *Network) AddLabelRoots(roots []graph.NodeID) {
	n.labelSeeds = append(n.labelSeeds, roots...)
	n.rootGen++
}

// SetManagingHub assigns a client to a managing hub (SchemePolicy.Setup).
func (n *Network) SetManagingHub(client, hub graph.NodeID) {
	n.hubOf[client] = hub
}

// ReshapeMultiStar realizes Definition 1's multi-star topology: during
// payment preparation each client opens a direct payment channel with its
// managing hub (§III-A), funded with the client's typical channel size. The
// original graph remains as the hub-to-hub transit backbone. NewNetwork
// owns the graph, so adding edges here is safe. Safe to call again mid-run
// after a re-placement: only the missing client-hub channels open.
func (n *Network) ReshapeMultiStar() {
	n.pauseSpeculation()
	defer n.resumeSpeculation()
	for v := 0; v < n.g.NumNodes(); v++ {
		client := graph.NodeID(v)
		if n.isHub[client] || n.departed[client] {
			continue
		}
		hub, ok := n.hubOf[client]
		if !ok || n.departed[hub] || n.g.HasEdgeBetween(client, hub) {
			continue
		}
		// Fund the client side with its mean existing per-direction
		// balance (the client moves part of its liquidity to the hub
		// channel); the hub matches it.
		funds := 0.0
		deg := n.g.Degree(client)
		if deg > 0 {
			for _, eid := range n.g.Incident(client) {
				e := n.g.Edge(eid)
				funds += e.Capacity(client)
			}
			funds /= float64(deg)
		}
		if funds <= 0 {
			funds = workload.LNChannelMedian
		}
		eid, err := n.g.AddEdge(client, hub, funds, funds)
		if err != nil {
			panic(err) // client != hub and both in range
		}
		ch, err := channel.New(eid, client, hub, funds, funds)
		if err != nil {
			panic(err)
		}
		ch.QueueLimit = n.cfg.QueueLimit
		ch.MaxInFlight = n.cfg.MaxInFlightTUs
		n.chans = append(n.chans, ch)
		n.recordCapital(2 * funds)
	}
	n.InvalidateRoutes() // the graph gained channels; cached paths are stale
}

// CapitalizeHubs scales the funds of hub-incident channels by
// HubCapitalBoost: taking the hub role comes with pledging capital into the
// hub's channels (SchemePolicy.Setup). The boost is applied as a deposit of
// (boost−1)× the current spendable balance per side — identical to the
// former recreate-with-boosted-balances at setup time (nothing is locked or
// queued yet), and additionally safe mid-run for online re-placement. Each
// channel is boosted at most once over the network's lifetime: the capital
// pledge stays with the channel even if its hub is later demoted.
func (n *Network) CapitalizeHubs() {
	if n.cfg.HubCapitalBoost <= 1 {
		return
	}
	n.pauseSpeculation()
	defer n.resumeSpeculation()
	for _, h := range n.hubs {
		for _, eid := range n.g.Incident(h) {
			if n.boosted[eid] {
				continue
			}
			n.boosted[eid] = true
			ch := n.chans[eid]
			for _, d := range []channel.Direction{channel.Fwd, channel.Rev} {
				pledge := ch.Balance(d) * (n.cfg.HubCapitalBoost - 1)
				if err := ch.Deposit(d, pledge); err != nil {
					panic(err) // channel is open and the amount non-negative
				}
				n.recordCapital(pledge)
			}
		}
	}
	// Defensive eviction: path selection reads the graph's static edge
	// capacities, which this does not touch (only channel funds change), so
	// nothing cached is actually stale today — but the invalidation
	// contract is cheap to honor uniformly for every funds/topology
	// mutation, and keeps a future capacity-writing boost safe.
	n.InvalidateRoutes()
}

// placeHubs runs the placement pipeline: candidate list by excellence
// (degree), then placement.Instance.Solve — exact on small candidate lists,
// the double-greedy approximation above.
//
// Under dynamics the pipeline is re-run mid-simulation, so it restricts
// itself to the nodes that can actually be placed over: departed nodes are
// excluded, and so are nodes outside the largest connected component of the
// active graph (churn can fragment it, and the placement cost matrices
// require every client to be reachable from every candidate; the largest
// component — not, say, a well-connected splinter around a former hub — is
// where placement helps the most nodes). Ties break toward the component
// holding the lowest node id. On a fresh connected network this reduces to
// the whole node set.
func (n *Network) placeHubs() ([]graph.NodeID, error) {
	// Count each component's active nodes, then take the first largest in
	// the order of the components' lowest active node.
	label, count := n.g.Components()
	active := make([]int, count)
	for v, l := range label {
		if !n.departed[graph.NodeID(v)] {
			active[l]++
		}
	}
	best := -1
	for v, l := range label {
		if !n.departed[graph.NodeID(v)] && (best < 0 || active[l] > active[best]) {
			best = l
		}
	}
	var eligible []graph.NodeID
	if best >= 0 {
		eligible = make([]graph.NodeID, 0, active[best])
		for v, l := range label {
			if l == best && !n.departed[graph.NodeID(v)] {
				eligible = append(eligible, graph.NodeID(v))
			}
		}
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("pcn: no active nodes to place hubs over")
	}
	numCand := n.cfg.NumHubCandidates
	if numCand > len(eligible)/2 {
		numCand = len(eligible) / 2
	}
	if numCand < 1 {
		numCand = 1
	}
	// TopDegreeNodesOf reorders its argument; keep the ascending client order
	// (matching the static pipeline) by selecting over a copy.
	cands := topology.TopDegreeNodesOf(n.g, append([]graph.NodeID(nil), eligible...), numCand)
	candSet := map[graph.NodeID]bool{}
	for _, c := range cands {
		candSet[c] = true
	}
	var clients []graph.NodeID
	for _, id := range eligible {
		if !candSet[id] {
			clients = append(clients, id)
		}
	}
	inst, err := placement.NewInstanceFromGraph(n.g, clients, cands, n.cfg.PlacementOmega)
	if err != nil {
		return nil, err
	}
	plan, err := inst.Solve()
	if err != nil {
		return nil, err
	}
	var hubs []graph.NodeID
	for _, idx := range plan.PlacedCandidates() {
		hubs = append(hubs, cands[idx])
	}
	if len(hubs) == 0 {
		return nil, fmt.Errorf("pcn: placement produced no hubs")
	}
	return hubs, nil
}

// assignClients maps every non-hub node to its Lemma-1 hub: the hub
// minimizing ω·(sync burden) + ζ(hops).
func (n *Network) assignClients() {
	hopsFrom := placement.CandidateHops(n.g, n.hubs)
	// Sync burden per hub: ω Σ_l δ(h, l).
	burden := make([]float64, len(n.hubs))
	for i := range n.hubs {
		for j, l := range n.hubs {
			_ = j
			if hopsFrom[i][l] > 0 {
				burden[i] += placement.DefaultSyncPerHop * float64(hopsFrom[i][l])
			}
		}
	}
	for v := 0; v < n.g.NumNodes(); v++ {
		node := graph.NodeID(v)
		if n.isHub[node] || n.departed[node] {
			continue
		}
		assigned := false
		best, bestCost := 0, 0.0
		for i := range n.hubs {
			h := hopsFrom[i][node]
			if h < 0 {
				continue
			}
			c := n.cfg.PlacementOmega*burden[i] + placement.DefaultMgmtPerHop*float64(h)
			if !assigned || c < bestCost {
				best, bestCost, assigned = i, c, true
			}
		}
		if assigned {
			n.hubOf[node] = n.hubs[best]
		}
	}
}

// Routes returns the network-wide route cache. Policies funnel every path
// computation through it (typically via GetOrCompute) so repeat payments and
// shared segments skip the graph algorithms.
func (n *Network) Routes() *RouteCache { return n.routes }

// PathFinder returns the network's shared path-computation scratch state,
// so route-cache misses run allocation-free instead of building throwaway
// Dijkstra buffers per query. The network (and hence the finder) is
// single-goroutine; parallel sweep workers each own a private Network. The
// finder tracks graph growth lazily, so it stays valid across the
// multi-star reshape.
func (n *Network) PathFinder() *graph.PathFinder {
	if n.pathFinder == nil {
		n.pathFinder = graph.NewPathFinder(n.g)
	}
	return n.pathFinder
}

// HubLabels returns the route-precomputation tier, or nil when the config
// runs exact routing or no roots are installed yet. The tier is rebuilt
// (lazily, here) whenever the root set changed since the last query; churn
// between queries is handled by the labels' own incremental repair.
func (n *Network) HubLabels() *graph.HubLabels {
	if n.cfg.RoutingOverride != RoutingHubLabels {
		return nil
	}
	if len(n.hubs) == 0 && len(n.labelSeeds) == 0 {
		return nil
	}
	if n.labels == nil || n.labelGen != n.rootGen {
		if n.labels != nil {
			n.retiredLabels = n.retiredLabels.Plus(n.labels.Stats())
		}
		n.labels = graph.NewHubLabels(n.g, n.PathFinder(), n.labelRoots())
		n.labelGen = n.rootGen
	}
	return n.labels
}

// unitShortestPath answers a unit-weight shortest-path query through the
// configured routing backend: the hub-label tier when enabled (served for
// hub-rooted sources, exact fallback otherwise), the shared PathFinder when
// not. Answers are byte-identical across backends.
func (n *Network) unitShortestPath(from, to graph.NodeID) (graph.Path, bool) {
	if hl := n.HubLabels(); hl != nil {
		return hl.UnitShortestPath(from, to)
	}
	return n.PathFinder().UnitShortestPath(from, to)
}

// unitShortestPaths is the multi-target form of unitShortestPath.
func (n *Network) unitShortestPaths(from graph.NodeID, dsts []graph.NodeID) []graph.Path {
	if hl := n.HubLabels(); hl != nil {
		return hl.UnitShortestPaths(from, dsts)
	}
	return n.PathFinder().UnitShortestPaths(from, dsts)
}

// kShortestPathsUnit routes KShortestPathsUnit through the configured
// backend (the label tier seeds Yen's first path when the source is a hub).
func (n *Network) kShortestPathsUnit(from, to graph.NodeID, k int) []graph.Path {
	if hl := n.HubLabels(); hl != nil {
		return hl.KShortestPathsUnit(from, to, k)
	}
	return n.PathFinder().KShortestPathsUnit(from, to, k)
}

// InvalidateRoutes evicts every cached path set and the per-pair probe
// registry. Topology mutations (ReshapeMultiStar, CapitalizeHubs, or any
// out-of-package Setup that reshapes the graph) call this so stale paths
// never route payments. With snapshots enabled (serving mode) it is also
// the publication point: the next epoch is built and published here, so
// readers switch atomically from the pre-mutation to the post-mutation
// topology.
func (n *Network) InvalidateRoutes() {
	n.routes.Invalidate()
	clear(n.pathsFor)
	if n.spec != nil {
		n.spec.invalidate()
	}
	n.publishSnapshot()
}

// Channel returns the live channel for an edge.
func (n *Network) Channel(id graph.EdgeID) *channel.Channel { return n.chans[id] }

// Graph returns the underlying topology.
func (n *Network) Graph() *graph.Graph { return n.g }

// Config returns the simulation parameters (for SchemePolicy
// implementations outside this package).
func (n *Network) Config() Config { return n.cfg }

// Policy returns the scheme policy driving this network.
func (n *Network) Policy() SchemePolicy { return n.policy }

// Hubs returns the scheme's hub set (nil for source-routing schemes).
func (n *Network) Hubs() []graph.NodeID { return append([]graph.NodeID(nil), n.hubs...) }

// Result summarizes a run.
type Result struct {
	Scheme               Scheme
	Generated            int
	Completed            int
	GeneratedValue       float64
	CompletedValue       float64
	TSR                  float64
	NormalizedThroughput float64
	MeanDelay            float64 // mean completion latency of successful txs
	MeanQueueDelay       float64
	TotalFees            float64
	MeanImbalance        float64 // mean end-state channel imbalance in [0,1]
	DeadlockedChannels   int     // channels fully drained in one direction

	// Adversarial-workload accounting (internal/attack). Attacker payments
	// are excluded from Generated/Completed/TSR above; HeldTUs counts TUs
	// parked by the hold-then-Refund jamming mechanism, HeldLockValue the
	// total value·hops they kept locked.
	AdversarialGenerated int
	AdversarialCompleted int
	HeldTUs              int
	HeldLockValue        float64

	// Route-computation effectiveness: RouteCache activity over the run and,
	// when RoutingHubLabels is on, hub-label tier activity (zero otherwise).
	RouteCacheHits          int // cached path sets reused
	RouteCacheMisses        int // path sets computed
	RouteCacheInvalidations int // whole-cache evictions (topology reshapes)
	LabelServed             int // unit queries answered from a hub tree
	LabelFallbacks          int // unit queries routed to the exact finder
	LabelBuilds             int // per-hub tree constructions (incl. repairs)
	LabelRepairs            int // tree rebuilds forced by churn staleness

	// Failure-aware retry accounting (zero unless Config.Retry is armed):
	// RetryAttempts counts re-sends, RetryRecovered TUs that settled after at
	// least one retry, RetryExhausted TUs that still failed after retrying.
	RetryAttempts  int
	RetryRecovered int
	RetryExhausted int

	// FailureReasons is the per-reason failure breakdown: counts keyed by
	// abort reason, merging the TU-level (tu_failed_<reason>) and
	// payment-level (tx_failed_<reason>) counters. Nil when the run recorded
	// no attributed failures.
	FailureReasons map[string]int
}

// Run executes the trace and returns the summary. The horizon extends past
// the last arrival by the transaction timeout so in-flight payments can
// finish. It is a convenience composition of the stepwise run API below,
// which the dynamics layer drives directly to interleave topology events
// with payment arrivals.
func (n *Network) Run(trace []workload.Tx) (Result, error) {
	if len(trace) == 0 {
		return Result{}, fmt.Errorf("pcn: empty trace")
	}
	horizon := trace[len(trace)-1].Deadline + 1
	if err := n.BeginRun(horizon); err != nil {
		return Result{}, err
	}
	for i := range trace {
		if err := n.ScheduleArrival(trace[i]); err != nil {
			return Result{}, err
		}
	}
	return n.Execute(horizon)
}

// BeginRun installs the τ-periodic maintenance (price updates + queue
// staleness marking for Splicer/Spider, gossip snapshot refresh ticks for
// Flash) up to the horizon. Callers composing a dynamic run invoke it once
// before scheduling arrivals or external events.
func (n *Network) BeginRun(horizon float64) error {
	if n.ticking {
		return fmt.Errorf("pcn: BeginRun called twice")
	}
	n.ticking = true
	if n.usesQueues() || n.usesPrices() || n.policy.WantsTick() {
		return n.engine.Every(n.cfg.UpdateTau, horizon, 0, n.onTauTick)
	}
	return nil
}

// ScheduleArrival registers a payment to arrive at tx.Arrival. The payment
// counts toward the run's Generated totals immediately (adversarial
// payments toward the separate adversarial totals).
func (n *Network) ScheduleArrival(tx workload.Tx) error {
	n.countGenerated(tx)
	if n.spec != nil {
		n.spec.enqueue(tx)
	}
	_, err := n.engine.ScheduleHandler(tx.Arrival, 1, &txRun{net: n, tx: tx})
	return err
}

// Arrive delivers a payment at the current simulation time. The dynamics
// layer uses it to resolve a payment's endpoints against the live node set
// at the moment of arrival rather than at trace-generation time.
func (n *Network) Arrive(tx workload.Tx) {
	n.countGenerated(tx)
	n.onArrival(&txRun{net: n, tx: tx})
}

func (n *Network) countGenerated(tx workload.Tx) {
	if tx.Adversarial {
		n.advCount++
		n.advValue += tx.Value
		return
	}
	n.genCount++
	n.genValue += tx.Value
}

// At schedules an external event (a topology mutation, a demand-process
// step) at absolute time t. External events run before same-instant payment
// arrivals and maintenance ticks, so a payment arriving exactly when a
// channel closes sees the post-close topology.
func (n *Network) At(t float64, action func()) error {
	_, err := n.engine.Schedule(t, -1, action)
	return err
}

// AtHandler is At with the event given as a sim.Handler, for a process that
// reschedules one long-lived object instead of allocating a closure per
// event.
func (n *Network) AtHandler(t float64, h sim.Handler) error {
	_, err := n.engine.ScheduleHandler(t, -1, h)
	return err
}

// Every schedules action at now+interval and then every interval until
// `until` (exclusive), at the same external-event priority as At. The
// dynamics driver uses it for its periodic processes (depletion repair,
// hotspot drift, online re-placement); tick times are drift-free like the
// engine's τ loop.
func (n *Network) Every(interval, until float64, action func()) error {
	return n.engine.Every(interval, until, -1, action)
}

// Execute runs the event loop to the horizon and summarizes. Payments whose
// dispatch was pushed past the horizon by compute backlog never produced an
// outcome event; they are failures.
func (n *Network) Execute(horizon float64) (Result, error) {
	n.runEngine(horizon)
	// Dynamically driven runs deliver payments via Arrive during the run, so
	// emptiness is only checkable afterwards.
	if n.genCount == 0 {
		return Result{}, fmt.Errorf("pcn: run generated no payments")
	}
	unresolved := float64(n.genCount) - n.metrics.Counter("tx_completed") - n.metrics.Counter("tx_failed")
	if unresolved > 0 {
		n.metrics.Add("tx_failed", unresolved)
		n.metrics.Add("tx_failed_compute_backlog", unresolved)
	}
	return n.summarize(), nil
}

// runEngine runs the event loop with the planning pool, if armed, alive
// around it: no planning goroutine survives the run, a panicking one
// included (sweep cells recover panics and carry on).
func (n *Network) runEngine(horizon float64) {
	if n.spec != nil {
		n.spec.start()
		defer n.spec.stop()
	}
	n.engine.Run(horizon)
}

func (n *Network) usesQueues() bool { return n.policy.UsesQueues() }

func (n *Network) usesPrices() bool { return n.policy.UsesPrices() }

func (n *Network) splitsTUs() bool { return n.policy.SplitsTUs() }

func (n *Network) summarize() Result {
	r := Result{
		Scheme:         n.policy.Scheme(),
		Generated:      n.genCount,
		GeneratedValue: n.genValue,
	}
	r.Completed = int(n.metrics.Counter("tx_completed"))
	r.CompletedValue = n.metrics.Counter("value_completed")
	if r.Generated > 0 {
		r.TSR = float64(r.Completed) / float64(r.Generated)
	}
	if r.GeneratedValue > 0 {
		r.NormalizedThroughput = r.CompletedValue / r.GeneratedValue
	}
	r.MeanDelay = n.metrics.Mean("tx_delay")
	r.MeanQueueDelay = n.metrics.Mean("queue_delay")
	r.TotalFees = n.metrics.Counter("fees")
	r.AdversarialGenerated = n.advCount
	r.AdversarialCompleted = int(n.metrics.Counter("adv_completed"))
	r.HeldTUs = int(n.metrics.Counter("tu_held"))
	r.HeldLockValue = n.metrics.Counter("tu_held_value")
	// Imbalance and deadlock are end-state health of the live topology;
	// closed channels are out of the network.
	imb, dead, open := 0.0, 0, 0
	for _, ch := range n.chans {
		if ch.Closed() {
			continue
		}
		open++
		imb += ch.Imbalance()
		if ch.Balance(channel.Fwd) <= 1e-9 || ch.Balance(channel.Rev) <= 1e-9 {
			dead++
		}
	}
	if open > 0 {
		r.MeanImbalance = imb / float64(open)
	}
	r.DeadlockedChannels = dead

	// Flush the route-computation counters into the metrics registry (they
	// accumulate in the cache/label tier, not per-event) and the Result.
	r.RouteCacheHits = int(n.routes.Hits())
	r.RouteCacheMisses = int(n.routes.Misses())
	r.RouteCacheInvalidations = int(n.routes.Generation())
	n.metrics.AddHandle(n.mh.routeCacheHits, float64(r.RouteCacheHits)-n.metrics.Counter("route_cache_hits"))
	n.metrics.AddHandle(n.mh.routeCacheMisses, float64(r.RouteCacheMisses)-n.metrics.Counter("route_cache_misses"))
	n.metrics.AddHandle(n.mh.routeCacheInvalidations, float64(r.RouteCacheInvalidations)-n.metrics.Counter("route_cache_invalidations"))
	if n.labels != nil {
		st := n.retiredLabels.Plus(n.labels.Stats())
		r.LabelServed = int(st.Served)
		r.LabelFallbacks = int(st.Fallbacks)
		r.LabelBuilds = int(st.Builds)
		r.LabelRepairs = int(st.Repairs)
		n.metrics.AddHandle(n.mh.labelServed, float64(r.LabelServed)-n.metrics.Counter("label_served"))
		n.metrics.AddHandle(n.mh.labelFallbacks, float64(r.LabelFallbacks)-n.metrics.Counter("label_fallbacks"))
		n.metrics.AddHandle(n.mh.labelBuilds, float64(r.LabelBuilds)-n.metrics.Counter("label_builds"))
		n.metrics.AddHandle(n.mh.labelRepairs, float64(r.LabelRepairs)-n.metrics.Counter("label_repairs"))
	}
	r.RetryAttempts = int(n.metrics.Counter("tu_retried"))
	r.RetryRecovered = int(n.metrics.Counter("tu_retry_recovered"))
	r.RetryExhausted = int(n.metrics.Counter("tu_retry_exhausted"))
	// Fold the reason-suffixed failure counters into one breakdown map.
	// CounterNames is sorted, so the extraction order (and hence any
	// downstream fold over sorted keys) is deterministic.
	for _, name := range n.metrics.CounterNames() {
		reason, ok := strings.CutPrefix(name, "tu_failed_")
		if !ok {
			reason, ok = strings.CutPrefix(name, "tx_failed_")
		}
		if !ok || reason == "" {
			continue
		}
		if c := int(n.metrics.Counter(name)); c > 0 {
			if r.FailureReasons == nil {
				r.FailureReasons = make(map[string]int)
			}
			r.FailureReasons[reason] += c
		}
	}
	return r
}

// ReliabilityStats returns the retry layer's store counters (zero Stats when
// Config.Retry is unarmed).
func (n *Network) ReliabilityStats() reliability.Stats {
	if n.relStore == nil {
		return reliability.Stats{}
	}
	return n.relStore.Stats()
}

// SeedRetryJitter replaces the retry backoff-jitter stream. The scenario
// layer calls it with the spec source's Split(6) as the LAST split drawn
// during a build, so arming retries never shifts the channel-size, topology,
// workload, dynamics or attack streams (see the split-label contract in
// internal/scenario/spec.go). No-op when retries are unarmed.
func (n *Network) SeedRetryJitter(src *rng.Source) {
	if n.relStore != nil && src != nil {
		n.retryRng = src
	}
}
