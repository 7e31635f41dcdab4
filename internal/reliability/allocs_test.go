package reliability

import (
	"math"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// TestReliabilityAllocs is the allocation gate of the retry layer's hot
// paths. The observation fold every TU resolution pays when retries are
// armed must not allocate once the edge table is grown. A retry re-plan (a
// Dijkstra through the penalty overlay on the 2000-node network
// splicer.BuildNetwork makes for seed 6) must stay within ⌈pin × 1.2⌉
// allocations per query, the pin being its count when the gate was set.
// With the layer unarmed the store does not exist, so the retry-off path is
// gated by internal/sim's and internal/graph's allocation tests instead.
func TestReliabilityAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped under -short: race runs use -short, and the race detector changes allocation counts")
	}
	const edges = 4096
	st := NewStore(NewConfig())
	st.ObserveSuccess(graph.EdgeID(edges-1), 0)
	i := 0
	observe := testing.AllocsPerRun(10000, func() {
		e := graph.EdgeID(i % edges)
		now := float64(i) * 0.001
		if i%3 == 0 {
			st.ObserveFailure(e, now)
		} else {
			st.ObserveSuccess(e, now)
		}
		_ = st.Penalty(e, now)
		i++
	})
	t.Logf("store_observe: %v allocs/observation (pin 0)", observe)
	if observe != 0 {
		t.Errorf("store_observe allocates %v times per observation, want 0", observe)
	}

	src := rng.New(6)
	sizes := workload.NewChannelSizeDist(src.Split(1), 1)
	g, err := topology.WattsStrogatz(src.Split(2), 2000, 4, 0.25, sizes.CapacityFunc())
	if err != nil {
		t.Fatal(err)
	}
	pf := graph.NewPathFinder(g)
	n := g.NumNodes()
	penalized := NewStore(NewConfig())
	m := g.NumLiveEdges()
	for i := 0; i < 256; i++ {
		penalized.ObserveFailure(graph.EdgeID((i*7919)%m), 0.1)
	}
	// Query past every exclusion window so the seeded failures penalize
	// edges instead of disconnecting them.
	now := 0.1 + penalized.Config().Exclusion + 1
	i, unreachable := 0, -1
	overlay := testing.AllocsPerRun(500, func() {
		s, d := graph.NodeID(i%n), graph.NodeID((i+n/2)%n)
		if _, ok := pf.ShortestPath(s, d, penalized.Weight(now)); !ok && unreachable < 0 {
			unreachable = i
		}
		i++
	})
	if unreachable >= 0 {
		t.Fatalf("penalty_overlay_sp_2000: query %d found no path", unreachable)
	}
	const pin = 2
	ceiling := math.Ceil(pin * 1.2)
	t.Logf("penalty_overlay_sp_2000: %v allocs/query (pin %v, ceiling %v)", overlay, pin, ceiling)
	if overlay > ceiling {
		t.Errorf("penalty_overlay_sp_2000 allocates %v times per query, ceiling %v (pin %v)", overlay, ceiling, pin)
	}
}
