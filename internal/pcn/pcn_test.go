package pcn

import (
	"fmt"
	"math"
	"testing"

	"github.com/splicer-pcn/splicer/internal/channel"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// testNetwork builds a small connected WS graph with LN-like channel sizes.
func testGraphAndTrace(t *testing.T, seed uint64, nodes int, rate, duration float64) (*graph.Graph, []workload.Tx) {
	t.Helper()
	src := rng.New(seed)
	sizes := workload.NewChannelSizeDist(src.Split(1), 1)
	g, err := topology.WattsStrogatz(src.Split(2), nodes, 4, 0.25, sizes.CapacityFunc())
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]graph.NodeID, nodes)
	for i := range clients {
		clients[i] = graph.NodeID(i)
	}
	trace, err := workload.Generate(src.Split(3), workload.Config{
		Clients:             clients,
		Rate:                rate,
		Duration:            duration,
		Timeout:             3,
		ZipfSkew:            0.8,
		ValueScale:          1,
		CirculationFraction: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, trace
}

func totalFunds(n *Network) float64 {
	total := 0.0
	for i := 0; i < n.Graph().NumEdges(); i++ {
		total += n.Channel(graph.EdgeID(i)).Capacity()
	}
	return total
}

func runScheme(t *testing.T, scheme Scheme, seed uint64, nodes int) (Result, *Network) {
	t.Helper()
	g, trace := testGraphAndTrace(t, seed, nodes, 40, 5)
	cfg := NewConfig(scheme)
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := totalFunds(n)
	res, err := n.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if after := totalFunds(n); math.Abs(after-before) > 1e-6 {
		t.Fatalf("%v: channel funds not conserved: %v -> %v", scheme, before, after)
	}
	// No funds may remain locked after every deadline passed.
	for i := 0; i < n.Graph().NumEdges(); i++ {
		ch := n.Channel(graph.EdgeID(i))
		if ch.Capacity()-ch.Balance(channel.Fwd)-ch.Balance(channel.Rev) > 2e-9 {
			t.Fatalf("%v: channel %d still has locked funds after run", scheme, i)
		}
	}
	return res, n
}

func TestAllSchemesRunAndConserve(t *testing.T) {
	for _, scheme := range []Scheme{SchemeSplicer, SchemeSpider, SchemeFlash, SchemeLandmark, SchemeA2L, SchemeShortestPath} {
		res, _ := runScheme(t, scheme, 11, 60)
		if res.Generated == 0 {
			t.Fatalf("%v: no transactions generated", scheme)
		}
		if res.TSR < 0 || res.TSR > 1 {
			t.Fatalf("%v: TSR %v out of range", scheme, res.TSR)
		}
		if res.NormalizedThroughput < 0 || res.NormalizedThroughput > 1+1e-9 {
			t.Fatalf("%v: throughput %v out of range", scheme, res.NormalizedThroughput)
		}
		if res.Completed > 0 && (math.IsNaN(res.MeanDelay) || res.MeanDelay <= 0) {
			t.Fatalf("%v: bad mean delay %v with %d completions", scheme, res.MeanDelay, res.Completed)
		}
		t.Logf("%-13v TSR=%.3f thr=%.3f delay=%.3fs completed=%d/%d",
			scheme, res.TSR, res.NormalizedThroughput, res.MeanDelay, res.Completed, res.Generated)
	}
}

func TestSplicerOutperformsNaiveOnDeadlockWorkload(t *testing.T) {
	// Heavy circulation: the Fig. 1(b) pattern drains intermediaries under
	// naive shortest-path routing; Splicer's balance-aware rates must do
	// strictly better.
	src := rng.New(77)
	sizes := workload.NewChannelSizeDist(src.Split(1), 0.2) // tight channels
	g, err := topology.WattsStrogatz(src.Split(2), 50, 4, 0.2, sizes.CapacityFunc())
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]graph.NodeID, 50)
	for i := range clients {
		clients[i] = graph.NodeID(i)
	}
	trace, err := workload.Generate(src.Split(3), workload.Config{
		Clients:             clients,
		Rate:                60,
		Duration:            6,
		Timeout:             3,
		ZipfSkew:            0.5,
		ValueScale:          1.5,
		CirculationFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(scheme Scheme) Result {
		n, err := NewNetwork(g.Clone(), NewConfig(scheme))
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	splicer := run(SchemeSplicer)
	naive := run(SchemeShortestPath)
	t.Logf("splicer TSR=%.3f naive TSR=%.3f", splicer.TSR, naive.TSR)
	if splicer.TSR <= naive.TSR {
		t.Fatalf("Splicer TSR %.3f not above naive %.3f on deadlock workload", splicer.TSR, naive.TSR)
	}
}

func TestSplicerPlacesHubs(t *testing.T) {
	_, n := runScheme(t, SchemeSplicer, 21, 50)
	hubs := n.Hubs()
	if len(hubs) == 0 {
		t.Fatal("no hubs placed")
	}
	// Every non-hub node has a managing hub.
	for i := 0; i < n.Graph().NumNodes(); i++ {
		node := graph.NodeID(i)
		if n.isHub[node] {
			continue
		}
		if _, ok := n.hubOf[node]; !ok {
			t.Fatalf("node %d has no managing hub", node)
		}
	}
}

func TestA2LSingleHub(t *testing.T) {
	_, n := runScheme(t, SchemeA2L, 23, 40)
	if len(n.Hubs()) != 1 {
		t.Fatalf("A2L hubs = %v", n.Hubs())
	}
}

func TestExplicitHubOverride(t *testing.T) {
	g, trace := testGraphAndTrace(t, 31, 40, 20, 3)
	cfg := NewConfig(SchemeSplicer)
	cfg.Hubs = []graph.NodeID{3, 7}
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hubs := n.Hubs()
	if len(hubs) != 2 || hubs[0] != 3 || hubs[1] != 7 {
		t.Fatalf("hubs = %v", hubs)
	}
	if _, err := n.Run(trace); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicResults(t *testing.T) {
	r1, _ := runScheme(t, SchemeSplicer, 41, 40)
	r2, _ := runScheme(t, SchemeSplicer, 41, 40)
	// Compare via formatting: NaN fields (empty histograms) are equal runs
	// but NaN != NaN under ==.
	s1, s2 := fmt.Sprintf("%+v", r1), fmt.Sprintf("%+v", r2)
	if s1 != s2 {
		t.Fatalf("runs differ:\n%s\n%s", s1, s2)
	}
}

func TestConfigValidation(t *testing.T) {
	mod := func(f func(*Config)) Config {
		c := NewConfig(SchemeSplicer)
		f(&c)
		return c
	}
	cases := []Config{
		mod(func(c *Config) { c.Scheme = Scheme(0) }),
		mod(func(c *Config) { c.NumPaths = 0 }),
		mod(func(c *Config) { c.UpdateTau = 0 }),
		mod(func(c *Config) { c.HopDelay = -1 }),
		mod(func(c *Config) { c.MinTU = 0 }),
		mod(func(c *Config) { c.MaxTU = 0.5 }),
		mod(func(c *Config) { c.Scheduler = nil }),
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestNewNetworkTooSmall(t *testing.T) {
	g := graph.New(2)
	if _, err := g.AddEdge(0, 1, 10, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetwork(g, NewConfig(SchemeSplicer)); err == nil {
		t.Fatal("2-node network accepted")
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	g, _ := testGraphAndTrace(t, 51, 30, 10, 2)
	n, err := NewNetwork(g, NewConfig(SchemeSpider))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestSchemeByName(t *testing.T) {
	for _, s := range []Scheme{SchemeSplicer, SchemeSpider, SchemeFlash, SchemeLandmark, SchemeA2L, SchemeShortestPath} {
		got, err := SchemeByName(s.String())
		if err != nil || got != s {
			t.Fatalf("SchemeByName(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := SchemeByName("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestGeneratedCounterMatchesTrace(t *testing.T) {
	res, n := runScheme(t, SchemeSpider, 61, 40)
	if got := int(n.metrics.Counter("tx_generated")); got != res.Generated {
		t.Fatalf("generated counter %d != trace %d", got, res.Generated)
	}
	// Completed + failed == generated (every tx resolves).
	failed := int(n.metrics.Counter("tx_failed"))
	if res.Completed+failed != res.Generated {
		t.Fatalf("completed %d + failed %d != generated %d", res.Completed, failed, res.Generated)
	}
}
