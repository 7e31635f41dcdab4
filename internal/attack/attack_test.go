package attack

import (
	"reflect"
	"testing"

	"github.com/splicer-pcn/splicer/internal/dynamics"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// testNetwork builds a Watts–Strogatz network under the given scheme.
func testNetwork(t testing.TB, seed uint64, nodes int, scheme pcn.Scheme, maxInFlight int) *pcn.Network {
	t.Helper()
	src := rng.New(seed)
	sizes := workload.NewChannelSizeDist(src.Split(1), 1)
	g, err := topology.WattsStrogatz(src.Split(2), nodes, 4, 0.25, sizes.CapacityFunc())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pcn.NewConfig(scheme)
	cfg.NumHubCandidates = 8
	cfg.MaxInFlightTUs = maxInFlight
	n, err := pcn.NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// testTrace generates a short honest workload over all nodes.
func testTrace(t testing.TB, seed uint64, n *pcn.Network, rate, duration float64) []workload.Tx {
	t.Helper()
	clients := make([]graph.NodeID, n.Graph().NumNodes())
	for i := range clients {
		clients[i] = graph.NodeID(i)
	}
	trace, err := workload.Generate(rng.New(seed).Split(3), workload.Config{
		Clients: clients, Rate: rate, Duration: duration,
		Timeout: 3, ZipfSkew: 0.8, ValueScale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// runWithAttack mirrors the scenario engine's static attack path: decomposed
// run with the injector's events installed on the same engine.
func runWithAttack(t testing.TB, n *pcn.Network, trace []workload.Tx, src *rng.Source, cfg Config) (pcn.Result, *Injector) {
	t.Helper()
	horizon := trace[len(trace)-1].Deadline + 1
	if end := cfg.End() + 1; end > horizon {
		horizon = end
	}
	if err := n.BeginRun(horizon); err != nil {
		t.Fatal(err)
	}
	for _, tx := range trace {
		if err := n.ScheduleArrival(tx); err != nil {
			t.Fatal(err)
		}
	}
	inj, err := NewInjector(n, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Install(); err != nil {
		t.Fatal(err)
	}
	res, err := n.Execute(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return res, inj
}

// TestJammingHoldsAndConserves pins the jamming injector end to end:
// adversarial payments are issued during the window, hold locked TUs, stay
// out of the honest accounting, and the run conserves funds.
func TestJammingHoldsAndConserves(t *testing.T) {
	n := testNetwork(t, 5, 60, pcn.SchemeSplicer, 10)
	trace := testTrace(t, 5, n, 40, 3)
	cfg := Config{Kind: KindJamming, Start: 0.5, Duration: 2, Rate: 30, HoldTime: 1.5}
	res, inj := runWithAttack(t, n, trace, rng.New(99), cfg)
	st := inj.stats
	if st.AdversarialScheduled == 0 {
		t.Fatal("no adversarial payments scheduled at rate 30 over 2 s")
	}
	if res.AdversarialGenerated != st.AdversarialScheduled {
		t.Fatalf("AdversarialGenerated = %d, injector scheduled %d", res.AdversarialGenerated, st.AdversarialScheduled)
	}
	if res.Generated != len(trace) {
		t.Fatalf("honest Generated = %d polluted by the attack, want %d", res.Generated, len(trace))
	}
	if res.HeldTUs == 0 {
		t.Fatal("jamming run held no TUs")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectorDeterminism pins the seeded-attack contract: equal seeds over
// equal networks produce identical results and stats; different seeds
// produce a different attack.
func TestInjectorDeterminism(t *testing.T) {
	run := func(attackSeed uint64) (pcn.Result, Stats) {
		n := testNetwork(t, 5, 60, pcn.SchemeSplicer, 10)
		trace := testTrace(t, 5, n, 40, 3)
		cfg := Config{Kind: KindJamming, Start: 0.5, Duration: 2, Rate: 30, HoldTime: 1.5}
		res, inj := runWithAttack(t, n, trace, rng.New(attackSeed), cfg)
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		return res, inj.stats
	}
	resA, stA := run(99)
	resB, stB := run(99)
	if !reflect.DeepEqual(resA, resB) || stA != stB {
		t.Fatalf("equal seeds diverged:\n%+v\n%+v", resA, resB)
	}
	resC, stC := run(100)
	if stA == stC && reflect.DeepEqual(resA, resC) {
		t.Fatal("different attack seeds produced an identical run")
	}
}

// TestFlashCrowdAddsHonestDemand pins the flash-crowd injector: spike
// payments are honest (they count toward Generated/TSR) and the run
// conserves funds under the shock.
func TestFlashCrowdAddsHonestDemand(t *testing.T) {
	n := testNetwork(t, 6, 60, pcn.SchemeSplicer, 0)
	trace := testTrace(t, 6, n, 40, 3)
	cfg := Config{
		Kind: KindFlashCrowd, Start: 1, Duration: 1,
		SpikeFactor: 20, RegionFraction: 0.2,
		BaseRate: 40, ValueScale: 1, Timeout: 3,
	}
	res, inj := runWithAttack(t, n, trace, rng.New(7), cfg)
	st := inj.stats
	if st.FlashScheduled == 0 {
		t.Fatal("flash crowd scheduled no spike payments at 20x")
	}
	if res.Generated != len(trace)+st.FlashScheduled {
		t.Fatalf("Generated = %d, want honest %d + spike %d", res.Generated, len(trace), st.FlashScheduled)
	}
	if res.AdversarialGenerated != 0 {
		t.Fatalf("flash payments are honest, but AdversarialGenerated = %d", res.AdversarialGenerated)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestHubOutageStrikesAndRecovers pins the correlated-outage injector on a
// hub scheme: the top-k placement hubs depart at Start, rejoin at
// Start+RecoverAfter with their former channels re-opened, and the run
// conserves funds across the strike (closed-channel balances) and the
// recovery (fresh pledged capital).
func TestHubOutageStrikesAndRecovers(t *testing.T) {
	n := testNetwork(t, 8, 60, pcn.SchemeSplicer, 0)
	hubs := n.Hubs()
	if len(hubs) < 2 {
		t.Fatalf("placement produced %d hubs, need >= 2", len(hubs))
	}
	trace := testTrace(t, 8, n, 40, 4)
	cfg := Config{Kind: KindHubOutage, Start: 1, TopK: 2, RecoverAfter: 1.5}
	_, inj := runWithAttack(t, n, trace, rng.New(3), cfg)
	st := inj.stats
	if st.HubsStruck != 2 {
		t.Fatalf("HubsStruck = %d, want 2", st.HubsStruck)
	}
	if st.HubsRecovered != 2 {
		t.Fatalf("HubsRecovered = %d, want 2", st.HubsRecovered)
	}
	if st.ChannelsReopened == 0 {
		t.Fatal("recovery re-opened no channels")
	}
	for _, h := range hubs[:2] {
		if n.Departed(h) {
			t.Fatalf("hub %d still departed after recovery", h)
		}
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestHubOutageNoRecovery pins the permanent-outage variant: struck hubs
// stay departed and funds still conserve (their channel balances remain
// accounted in the closed channels).
func TestHubOutageNoRecovery(t *testing.T) {
	n := testNetwork(t, 8, 60, pcn.SchemeSplicer, 0)
	hubs := n.Hubs()
	trace := testTrace(t, 8, n, 40, 3)
	cfg := Config{Kind: KindHubOutage, Start: 1, TopK: 2}
	_, inj := runWithAttack(t, n, trace, rng.New(3), cfg)
	if st := inj.stats; st.HubsStruck != 2 || st.HubsRecovered != 0 {
		t.Fatalf("stats = %+v, want 2 struck / 0 recovered", st)
	}
	if !n.Departed(hubs[0]) {
		t.Fatal("struck hub rejoined without RecoverAfter")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestAttackUnderChurn pins attack/churn composition: the injector rides a
// dynamics-driven run whose own timeline departs and joins nodes while the
// attack strikes hubs and jams channels, and conservation still holds —
// the mid-attack-churn case of the conservation satellite.
func TestAttackUnderChurn(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"jamming", Config{Kind: KindJamming, Start: 0.5, Duration: 2, Rate: 20, HoldTime: 1.5}},
		{"hub-outage", Config{Kind: KindHubOutage, Start: 1, TopK: 2, RecoverAfter: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := testNetwork(t, 9, 60, pcn.SchemeSplicer, 10)
			dcfg := dynamics.NewConfig(4)
			dcfg.JoinRate = 2
			dcfg.LeaveRate = 2
			dcfg.OpenRate = 2
			dcfg.CloseRate = 2
			dcfg.TopUpRate = 2
			dcfg.Rate = 40
			d, err := dynamics.NewDriver(n, rng.New(9).Split(4), dcfg)
			if err != nil {
				t.Fatal(err)
			}
			inj, err := NewInjector(n, rng.New(9).Split(5), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			horizon := dcfg.End() + 1
			if err := n.BeginRun(horizon); err != nil {
				t.Fatal(err)
			}
			inj.AttachDriver(d)
			if err := inj.Install(); err != nil {
				t.Fatal(err)
			}
			if err := d.Install(); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Execute(horizon); err != nil {
				t.Fatal(err)
			}
			if err := n.CheckConservation(); err != nil {
				t.Fatalf("conservation under churn + %s: %v", tc.name, err)
			}
		})
	}
}

// TestConfigValidate pins the per-kind parameter checks.
func TestConfigValidate(t *testing.T) {
	valid := []Config{
		{Kind: KindJamming, Rate: 10, Duration: 1},
		{Kind: KindFlashCrowd, SpikeFactor: 10, RegionFraction: 0.2, BaseRate: 50, ValueScale: 1, Timeout: 3, Duration: 1},
		{Kind: KindHubOutage, TopK: 3},
	}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", c.Kind, err)
		}
	}
	invalid := []Config{
		{Kind: "ddos"},
		{Kind: KindJamming, Rate: -1},
		{Kind: KindJamming, Start: -1},
		{Kind: KindFlashCrowd, SpikeFactor: 0.5, BaseRate: 50, ValueScale: 1, Timeout: 3},
		{Kind: KindFlashCrowd, SpikeFactor: 2, RegionFraction: 1.5, BaseRate: 50, ValueScale: 1, Timeout: 3},
		{Kind: KindFlashCrowd, SpikeFactor: 2, RegionFraction: 0.2},
		{Kind: KindHubOutage, TopK: -1},
	}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: invalid config accepted", c)
		}
	}
}
