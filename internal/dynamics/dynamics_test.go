package dynamics

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// runDriver runs d alone on its network: the scenario engine's run sequence
// with neither a static trace nor an attack.
func runDriver(d *Driver) (pcn.Result, error) {
	horizon := d.cfg.End() + 1
	if err := d.net.BeginRun(horizon); err != nil {
		return pcn.Result{}, err
	}
	if err := d.Install(); err != nil {
		return pcn.Result{}, err
	}
	return d.net.Execute(horizon)
}

// testNetwork builds a Watts–Strogatz network under the given scheme.
func testNetwork(t testing.TB, seed uint64, nodes int, scheme pcn.Scheme) *pcn.Network {
	t.Helper()
	src := rng.New(seed)
	sizes := workload.NewChannelSizeDist(src.Split(1), 1)
	g, err := topology.WattsStrogatz(src.Split(2), nodes, 4, 0.25, sizes.CapacityFunc())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pcn.NewConfig(scheme)
	cfg.NumHubCandidates = 8
	n, err := pcn.NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// testConfig is a lively 4-second churn configuration.
func testConfig() Config {
	cfg := NewConfig(4)
	cfg.JoinRate = 2
	cfg.LeaveRate = 2
	cfg.OpenRate = 2
	cfg.CloseRate = 2
	cfg.TopUpRate = 2
	cfg.Rate = 60
	return cfg
}

func TestTimelineDeterministic(t *testing.T) {
	cfg := testConfig()
	a, err := GenerateTimeline(rng.New(11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTimeline(rng.New(11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds produced different timelines")
	}
	c, err := GenerateTimeline(rng.New(12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical timelines")
	}
	if len(a) == 0 {
		t.Fatal("timeline empty at these rates")
	}
	// Sorted by time; every kind appears at these rates over 4 s.
	seen := map[Kind]int{}
	for i, ev := range a {
		if i > 0 && ev.Time < a[i-1].Time {
			t.Fatal("timeline out of order")
		}
		if ev.Time < 0 || ev.Time >= cfg.Horizon {
			t.Fatalf("event time %v outside [0, %v)", ev.Time, cfg.Horizon)
		}
		if len(ev.Picks) != cfg.picksFor(ev.Kind) {
			t.Fatalf("%v event carries %d picks, want %d", ev.Kind, len(ev.Picks), cfg.picksFor(ev.Kind))
		}
		seen[ev.Kind]++
	}
	for _, k := range []Kind{KindJoin, KindLeave, KindOpen, KindClose, KindTopUp} {
		if seen[k] == 0 {
			t.Fatalf("no %v events generated", k)
		}
	}
}

func TestTimelineValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Horizon = 0
	if _, err := GenerateTimeline(rng.New(1), cfg); err == nil {
		t.Fatal("zero horizon accepted")
	}
	cfg = testConfig()
	cfg.DiurnalAmplitude = 1
	if _, err := GenerateTimeline(rng.New(1), cfg); err == nil {
		t.Fatal("amplitude 1 accepted")
	}
}

// runOnce executes one full dynamic run and returns the result plus the
// applied-event log rendered to a canonical string.
func runOnce(t testing.TB, seed uint64, scheme pcn.Scheme, cfg Config) (pcn.Result, string) {
	t.Helper()
	n := testNetwork(t, seed, 60, scheme)
	d, err := NewDriver(n, rng.New(seed+1000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runDriver(d)
	if err != nil {
		t.Fatal(err)
	}
	return res, fmt.Sprintf("%+v", d.applied)
}

// TestDriverDeterministic: identical seeds give byte-identical results and
// applied-event logs — the in-cell half of the worker-invariance story (the
// sweep engine provides the across-worker half).
func TestDriverDeterministic(t *testing.T) {
	cfg := testConfig()
	r1, log1 := runOnce(t, 21, pcn.SchemeSplicer, cfg)
	r2, log2 := runOnce(t, 21, pcn.SchemeSplicer, cfg)
	if fmt.Sprintf("%+v", r1) != fmt.Sprintf("%+v", r2) {
		t.Fatalf("results differ:\n%+v\n%+v", r1, r2)
	}
	if log1 != log2 {
		t.Fatal("applied-event logs differ between identical runs")
	}
}

func TestDriverAppliesChurn(t *testing.T) {
	n := testNetwork(t, 31, 60, pcn.SchemeSpider)
	cfg := testConfig()
	d, err := NewDriver(n, rng.New(32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runDriver(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("no demand generated")
	}
	if res.TSR < 0 || res.TSR > 1 {
		t.Fatalf("TSR = %v out of range", res.TSR)
	}
	applied := map[Kind]int{}
	skipped := 0
	for _, a := range d.applied {
		if a.Skipped != "" {
			skipped++
			continue
		}
		applied[a.Kind]++
	}
	for _, k := range []Kind{KindJoin, KindLeave, KindOpen, KindClose, KindTopUp} {
		if applied[k] == 0 {
			t.Fatalf("no %v events applied (skipped=%d)", k, skipped)
		}
	}
	// Churn really happened: nodes joined and departed.
	g := n.Graph()
	if g.NumNodes() <= 60 {
		t.Fatalf("NumNodes = %d, want > 60 after joins", g.NumNodes())
	}
	departures := 0
	for v := 0; v < g.NumNodes(); v++ {
		if n.Departed(graph.NodeID(v)) {
			departures++
		}
	}
	if departures == 0 {
		t.Fatal("no departures recorded")
	}
	if g.NumLiveEdges() >= g.NumEdges() {
		t.Fatal("no channels closed")
	}
}

// TestOnlineReplacementRecoversChurn pins the subsystem's headline claim:
// under heavy hub-killing churn, Splicer with periodic online re-placement
// completes more payments than Splicer with the static initial placement.
// Deterministic: fixed seeds.
func TestOnlineReplacementRecoversChurn(t *testing.T) {
	cfg := testConfig()
	cfg.LeaveRate = 4
	cfg.JoinRate = 1
	static, _ := runOnce(t, 41, pcn.SchemeSplicer, cfg)
	cfg.ReplaceInterval = 1
	online, _ := runOnce(t, 41, pcn.SchemeSplicer, cfg)
	t.Logf("static TSR=%.4f online TSR=%.4f", static.TSR, online.TSR)
	if online.TSR <= static.TSR {
		t.Fatalf("online re-placement TSR %.4f not above static %.4f under heavy churn",
			online.TSR, static.TSR)
	}
}

func TestReplaceRequiresSplicer(t *testing.T) {
	n := testNetwork(t, 51, 60, pcn.SchemeSpider)
	cfg := testConfig()
	cfg.ReplaceInterval = 1
	if _, err := NewDriver(n, rng.New(52), cfg); err == nil {
		t.Fatal("re-placement accepted for a non-placement scheme")
	}
}

// BenchmarkDynamicsEvents measures the event-application hot path: the full
// structural timeline applied to a live network (no demand), i.e. the
// marginal cost dynamics adds on top of a static simulation.
func BenchmarkDynamicsEvents(b *testing.B) {
	cfg := testConfig()
	cfg.Rate = 1 // demand off the hot path; Config requires a positive rate
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := testNetwork(b, 61, 100, pcn.SchemeSplicer)
		d, err := NewDriver(n, rng.New(62), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, ev := range d.timeline {
			d.apply(ev)
		}
	}
}
