package pcn

import (
	"fmt"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// widestPolicy is a custom scheme that is NOT registered: it always routes
// on the single shortest path but pretends to be a distinct scheme. It
// exercises the Config.Policy injection point.
type widestPolicy struct{ basePolicy }

func (widestPolicy) Plan(n *Network, tx workload.Tx) ([]graph.Path, []Allocation, error) {
	p, ok := graph.NewPathFinder(n.g).ShortestPath(tx.Sender, tx.Recipient, graph.UnitWeight)
	if !ok {
		return nil, nil, nil
	}
	return []graph.Path{p}, []Allocation{{PathIdx: 0, Value: tx.Value}}, nil
}

func policyTestNetwork(t *testing.T, cfg Config) (*Network, []workload.Tx) {
	t.Helper()
	src := rng.New(7)
	g, err := topology.WattsStrogatz(src.Split(1), 40, 4, 0.2, func() (float64, float64) { return 300, 300 })
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]graph.NodeID, g.NumNodes())
	for i := range clients {
		clients[i] = graph.NodeID(i)
	}
	trace, err := workload.Generate(src.Split(2), workload.Config{
		Clients: clients, Rate: 40, Duration: 2, Timeout: 3,
		ZipfSkew: 0.8, ValueScale: 1, CirculationFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, trace
}

// TestCustomPolicyInjection: a SchemePolicy supplied via Config.Policy runs
// through the full payment lifecycle without being registered.
func TestCustomPolicyInjection(t *testing.T) {
	const customScheme = Scheme(100)
	cfg := NewConfig(SchemeShortestPath)
	cfg.Scheme = customScheme // deliberately unregistered
	cfg.Policy = &widestPolicy{basePolicy{customScheme}}
	n, trace := policyTestNetwork(t, cfg)
	res, err := n.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != customScheme {
		t.Fatalf("Result.Scheme = %v, want %v", res.Scheme, customScheme)
	}
	if res.Completed == 0 {
		t.Fatal("custom policy completed no payments")
	}
	if got := res.Scheme.String(); got != "Scheme(100)" {
		t.Fatalf("unregistered scheme name = %q", got)
	}
}

// TestCustomPolicyMatchesEquivalentBuiltin: the injected shortest-path clone
// must behave exactly like the built-in ShortestPath policy — the lifecycle
// may not treat registered and injected policies differently.
func TestCustomPolicyMatchesEquivalentBuiltin(t *testing.T) {
	run := func(cfg Config) Result {
		n, trace := policyTestNetwork(t, cfg)
		res, err := n.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	builtin := run(NewConfig(SchemeShortestPath))
	custom := NewConfig(SchemeShortestPath)
	custom.Policy = &widestPolicy{basePolicy{SchemeShortestPath}}
	injected := run(custom)
	// The route-computation counters are policy-implementation detail (the
	// builtin plans through the RouteCache, the clone calls the graph
	// directly), not lifecycle behavior — exclude them from the comparison.
	builtin.RouteCacheHits, builtin.RouteCacheMisses = 0, 0
	injected.RouteCacheHits, injected.RouteCacheMisses = 0, 0
	// Compare formatted: NaN metrics (no queueing under this scheme) must
	// compare equal to themselves.
	b, i := fmt.Sprintf("%+v", builtin), fmt.Sprintf("%+v", injected)
	if b != i {
		t.Fatalf("injected policy diverged from builtin:\nbuiltin:  %s\ninjected: %s", b, i)
	}
}

// TestValidateRejectsUnregisteredScheme: without a Policy override, an
// unregistered scheme id must fail validation.
func TestValidateRejectsUnregisteredScheme(t *testing.T) {
	cfg := NewConfig(SchemeSplicer)
	cfg.Scheme = Scheme(100)
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted unregistered scheme without a Policy")
	}
	cfg.Policy = &widestPolicy{basePolicy{Scheme(100)}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected config with explicit Policy: %v", err)
	}
}

// TestRegistryCoversBuiltins: every built-in scheme resolves to a policy
// whose Scheme() round-trips.
func TestRegistryCoversBuiltins(t *testing.T) {
	for _, s := range registeredSchemes() {
		p, err := policyFor(s)
		if err != nil {
			t.Fatalf("policyFor(%v): %v", s, err)
		}
		if p.Scheme() != s {
			t.Fatalf("policyFor(%v).Scheme() = %v", s, p.Scheme())
		}
	}
	if len(registeredSchemes()) < 6 {
		t.Fatalf("expected ≥6 registered schemes, got %d", len(registeredSchemes()))
	}
}
