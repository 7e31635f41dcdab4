package graph_test

import (
	"math"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// wsGraph builds the network splicer.BuildNetwork makes for seed and nodes:
// a degree-4 Watts–Strogatz graph, rewiring 0.25, LN-calibrated channels.
func wsGraph(t *testing.T, seed uint64, nodes int) *graph.Graph {
	t.Helper()
	src := rng.New(seed)
	sizes := workload.NewChannelSizeDist(src.Split(1), 1)
	g, err := topology.WattsStrogatz(src.Split(2), nodes, 4, 0.25, sizes.CapacityFunc())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPathCoreAllocs is the allocation gate of the path-computation hot
// paths: each case replays a fixed query stream (query i runs from node i to
// the node half the graph away, or from a hub on the 10k-node scale-free
// graph) and fails when the average allocations per query pass ⌈pin × 1.2⌉.
// The pins are the allocations per query when the gate was set; they come
// from the returned paths, two slices each allocated at final length, and
// the k-path result slices, so the stream fixes them.
func TestPathCoreAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped under -short: race runs use -short, and the race detector changes allocation counts")
	}
	ws := func(seed uint64) (*graph.PathFinder, int) {
		g := wsGraph(t, seed, 2000)
		return graph.NewPathFinder(g), g.NumNodes()
	}
	halfway := func(i, n int) (graph.NodeID, graph.NodeID) {
		return graph.NodeID(i % n), graph.NodeID((i + n/2) % n)
	}
	// The 10k-node scale-free graph and its top-degree hubs: the unit search
	// and the label query answer the same hub-rooted stream.
	const labelNodes, labelHubs = 10000, 16
	src := rng.New(10)
	sizes := workload.NewChannelSizeDist(src.Split(1), 1)
	ba, err := topology.BarabasiAlbert(src.Split(2), labelNodes, 3, sizes.CapacityFunc())
	if err != nil {
		t.Fatal(err)
	}
	hubs := topology.TopDegreeNodes(ba, labelHubs)
	fromHub := func(i int) (graph.NodeID, graph.NodeID) {
		return hubs[i%len(hubs)], graph.NodeID((i*7919 + labelNodes/2) % labelNodes)
	}
	baFinder := graph.NewPathFinder(ba)
	labels := graph.NewHubLabels(ba, graph.NewPathFinder(ba), hubs)
	for i := 0; i < 64; i++ { // build every hub tree before measuring
		s, d := fromHub(i)
		labels.UnitShortestPath(s, d)
	}

	unitFinder, unitN := ws(6)
	kspFinder, kspN := ws(8)
	edwFinder, edwN := ws(9)
	cases := []struct {
		name  string
		pin   float64
		runs  int
		query func(i int) bool
	}{
		{"unit_shortest_2000", 2, 500, func(i int) bool {
			_, ok := unitFinder.UnitShortestPath(halfway(i, unitN))
			return ok
		}},
		{"ksp_unit_k3_2000", 31, 200, func(i int) bool {
			s, d := halfway(i, kspN)
			return len(kspFinder.KShortestPathsUnit(s, d, 3)) > 0
		}},
		{"edw_k5_2000", 7, 200, func(i int) bool {
			s, d := halfway(i, edwN)
			return len(edwFinder.EdgeDisjointWidestPaths(s, d, 5)) > 0
		}},
		{"unit_shortest_10000", 2, 200, func(i int) bool {
			_, ok := baFinder.UnitShortestPath(fromHub(i))
			return ok
		}},
		{"label_query_10000", 1, 10000, func(i int) bool {
			_, ok := labels.UnitShortestPath(fromHub(i))
			return ok
		}},
	}
	for _, tc := range cases {
		i, failed := 0, -1
		allocs := testing.AllocsPerRun(tc.runs, func() {
			if !tc.query(i) && failed < 0 {
				failed = i
			}
			i++
		})
		if failed >= 0 {
			t.Fatalf("%s: query %d found no path", tc.name, failed)
		}
		ceiling := math.Ceil(tc.pin * 1.2)
		t.Logf("%s: %v allocs/query (pin %v, ceiling %v)", tc.name, allocs, tc.pin, ceiling)
		if allocs > ceiling {
			t.Errorf("%s allocates %v times per query, ceiling %v (pin %v)", tc.name, allocs, ceiling, tc.pin)
		}
	}
	if st := labels.Stats(); st.Fallbacks != 0 {
		t.Fatalf("hub-rooted label stream hit %d fallbacks", st.Fallbacks)
	}
}
