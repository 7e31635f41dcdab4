package pcn

// Serving-mode concurrency tests: the sharded RouteCache under concurrent
// readers + an invalidating writer, and snapshot isolation at the Network
// level — a churn writer (join/leave/open/close/top-up/re-placement)
// publishing epochs through InvalidateRoutes while reader goroutines query
// pinned snapshots. Run with -race in CI.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
)

func TestRouteCacheConcurrentReaders(t *testing.T) {
	c := NewRouteCache()
	const readers = 8
	const perReader = 2000
	var readersWG, writerWG sync.WaitGroup
	var stop atomic.Bool

	writerWG.Add(1)
	go func() { // invalidating writer
		defer writerWG.Done()
		for !stop.Load() {
			c.Invalidate()
		}
	}()
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(seed int64) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perReader; i++ {
				key := RouteKey{
					Src: graph.NodeID(rng.Intn(50)),
					Dst: graph.NodeID(rng.Intn(50)),
					K:   1 + rng.Intn(3),
				}
				want := []graph.Path{{Nodes: []graph.NodeID{key.Src, key.Dst}}}
				got, err := c.GetOrCompute(key, func() ([]graph.Path, error) {
					return want, nil
				})
				if err != nil || len(got) != 1 {
					panic(fmt.Sprintf("GetOrCompute: %v %v", got, err))
				}
				c.Get(key)
				c.Put(key, want)
				c.Len()
			}
		}(int64(r))
	}
	readersWG.Wait()
	stop.Store(true)
	writerWG.Wait()
	// Every Get and GetOrCompute counted exactly once despite the races.
	if got := c.Hits() + c.Misses(); got != 2*readers*perReader {
		t.Fatalf("counters lost updates: hits %d + misses %d = %d, want %d",
			c.Hits(), c.Misses(), got, 2*readers*perReader)
	}
}

// TestRouteCacheSingleThreadedSemantics pins that sharding did not change
// the sequential arithmetic the batch simulator (and its Result counters)
// observes.
func TestRouteCacheSingleThreadedSemantics(t *testing.T) {
	c := NewRouteCache()
	key := RouteKey{Src: 1, Dst: 2, Type: ComposedRoutes, K: 3}
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, nil) // unroutable marker
	if paths, ok := c.Get(key); !ok || paths != nil {
		t.Fatal("unroutable marker lost")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.Hits(), c.Misses())
	}
	if c.Generation() != 0 {
		t.Fatalf("fresh generation = %d", c.Generation())
	}
	c.Invalidate()
	if c.Generation() != 1 || c.Len() != 0 {
		t.Fatalf("after invalidate: gen %d len %d", c.Generation(), c.Len())
	}
}

// testServingNetwork builds a Splicer network with hubs placed and
// snapshots enabled — the serving deployment's starting state.
func testServingNetwork(t *testing.T, seed uint64, nodes int) *Network {
	t.Helper()
	g, _ := testGraphAndTrace(t, seed, nodes, 1, 1)
	cfg := NewConfig(SchemeSplicer)
	n, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.EnableSnapshots()
	return n
}

// churnNetworkStep applies one random Network-level churn operation — the
// same op mix the dynamics driver issues.
func churnNetworkStep(rng *rand.Rand, n *Network) {
	g := n.Graph()
	switch op := rng.Intn(12); {
	case op == 0: // join + connect
		v := n.JoinNode()
		for i := 0; i < 2; i++ {
			u := graph.NodeID(rng.Intn(int(v)))
			if u != v && !n.Departed(u) {
				n.OpenChannel(u, v, 50+rng.Float64()*50, 50+rng.Float64()*50)
			}
		}
	case op == 1: // departure
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !n.Departed(v) && g.Degree(v) < 6 && !n.isHub[v] {
			n.DepartNode(v)
		}
	case op < 5: // open
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if u != v && !n.Departed(u) && !n.Departed(v) {
			n.OpenChannel(u, v, 50+rng.Float64()*50, 50+rng.Float64()*50)
		}
	case op < 8: // close
		if g.NumEdges() > 0 {
			id := graph.EdgeID(rng.Intn(g.NumEdges()))
			if !g.EdgeRemoved(id) && !n.Channel(id).Closed() && g.NumLiveEdges() > 40 {
				n.CloseChannel(id)
			}
		}
	default: // top-up
		if g.NumEdges() > 0 {
			id := graph.EdgeID(rng.Intn(g.NumEdges()))
			if !g.EdgeRemoved(id) && !n.Channel(id).Closed() {
				n.TopUpChannel(id, rng.Float64()*20, rng.Float64()*20)
			}
		}
	}
}

// TestNetworkSnapshotChurnVsReaders is the Network-level -race acceptance
// test: one writer goroutine owns the Network and applies churn (each
// mutation publishing an epoch via InvalidateRoutes) while 8 readers pin
// epochs and query them. Readers must only ever observe fully published
// topologies (ValidateSnapshot) and structurally valid paths; epochs are
// monotone per reader; no pins leak.
func TestNetworkSnapshotChurnVsReaders(t *testing.T) {
	const readers = 8
	n := testServingNetwork(t, 41, 80)
	st := n.snapshots

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)

	wg.Add(1)
	go func() { // writer: owns the Network
		defer wg.Done()
		rng := rand.New(rand.NewSource(4))
		for round := 0; round < 150; round++ {
			churnNetworkStep(rng, n)
			if round%50 == 49 {
				if err := n.RePlaceHubs(); err != nil {
					errs <- err
					break
				}
			}
		}
		stop.Store(true)
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var pf *graph.PathFinder
			var lastEpoch uint64
			for !stop.Load() {
				s := st.Acquire()
				if s == nil {
					errs <- fmt.Errorf("nil snapshot after EnableSnapshots")
					return
				}
				if s.Epoch() < lastEpoch {
					errs <- fmt.Errorf("epoch went backwards: %d -> %d", lastEpoch, s.Epoch())
					s.Release()
					return
				}
				lastEpoch = s.Epoch()
				sg := s.Graph()
				if err := graph.ValidateSnapshot(sg); err != nil {
					errs <- fmt.Errorf("epoch %d: %w", s.Epoch(), err)
					s.Release()
					return
				}
				if pf == nil {
					pf = graph.NewPathFinder(sg)
				} else {
					pf.Rebind(sg)
				}
				nn := sg.NumNodes()
				for q := 0; q < 4; q++ {
					src := graph.NodeID(rng.Intn(nn))
					dst := graph.NodeID(rng.Intn(nn))
					if p, ok := pf.UnitShortestPath(src, dst); ok && !p.Valid(sg) {
						errs <- fmt.Errorf("epoch %d: invalid unit path %d->%d", s.Epoch(), src, dst)
						s.Release()
						return
					}
					if v, ok := s.Labels(); ok {
						hubs := v.Hubs()
						hub := hubs[rng.Intn(len(hubs))]
						for _, p := range v.KShortestPathsUnit(pf, hub, dst, 3) {
							if !p.Valid(sg) {
								errs <- fmt.Errorf("epoch %d: invalid label KSP %d->%d", s.Epoch(), hub, dst)
								s.Release()
								return
							}
						}
					}
				}
				s.Release()
			}
		}(int64(10 + r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if pins := st.ActivePins(); pins != 0 {
		t.Fatalf("leaked %d pins", pins)
	}
	if st.Epoch() < 50 {
		t.Fatalf("writer published only %d epochs", st.Epoch())
	}
}

// TestSnapshotEpochRoutingEquivalence carries the routing_override_test.go
// contract to snapshots: per epoch, label-served answers through the
// snapshot's LabelView are byte-identical to exact PathFinder answers on
// the same frozen graph — the equivalence the batch test pins for the live
// graph holds for every published epoch under churn.
func TestSnapshotEpochRoutingEquivalence(t *testing.T) {
	n := testServingNetwork(t, 42, 70)
	st := n.snapshots
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 25; round++ {
		churnNetworkStep(rng, n)
		if round%10 == 9 {
			if err := n.RePlaceHubs(); err != nil {
				t.Fatal(err)
			}
		}
		s := st.Acquire()
		sg := s.Graph()
		v, ok := s.Labels()
		if !ok {
			t.Fatalf("round %d: snapshot has no labels despite placed hubs", round)
		}
		exact := graph.NewPathFinder(sg)
		viewPF := graph.NewPathFinder(sg)
		nn := sg.NumNodes()
		for q := 0; q < 25; q++ {
			hubs := v.Hubs()
			hub := hubs[q%len(hubs)]
			dst := graph.NodeID(rng.Intn(nn))
			vk := v.KShortestPathsUnit(viewPF, hub, dst, 3)
			ek := exact.KShortestPathsUnit(hub, dst, 3)
			if len(vk) != len(ek) {
				t.Fatalf("round %d epoch %d: KSP count diverges for %d->%d", round, s.Epoch(), hub, dst)
			}
			for i := range vk {
				if !vk[i].Equal(ek[i]) {
					t.Fatalf("round %d epoch %d: KSP[%d] diverges for %d->%d", round, s.Epoch(), i, hub, dst)
				}
			}
		}
		s.Release()
	}
}

// TestBatchModeHasNoSnapshotStore pins the zero-overhead contract: a batch
// Network never attaches a store, so publication is a nil-check no-op and
// golden panels cannot be affected by the serving layer.
func TestBatchModeHasNoSnapshotStore(t *testing.T) {
	g, trace := testGraphAndTrace(t, 43, 40, 20, 2)
	n, err := NewNetwork(g, NewConfig(SchemeSplicer))
	if err != nil {
		t.Fatal(err)
	}
	if n.snapshots != nil {
		t.Fatal("batch network has a snapshot store")
	}
	if _, err := n.Run(trace); err != nil {
		t.Fatal(err)
	}
	if n.snapshots != nil {
		t.Fatal("running a batch simulation attached a snapshot store")
	}
}

// TestEnableSnapshotsTracksReplacement pins that a hub re-placement carries
// the new root set into subsequent epochs.
func TestEnableSnapshotsTracksReplacement(t *testing.T) {
	n := testServingNetwork(t, 44, 60)
	st := n.snapshots
	if err := n.RePlaceHubs(); err != nil {
		t.Fatal(err)
	}
	s := st.Acquire()
	defer s.Release()
	v, ok := s.Labels()
	if !ok {
		t.Fatal("no labels after re-placement")
	}
	want := n.Hubs()
	got := v.Hubs()
	if len(got) < len(want) {
		t.Fatalf("snapshot labels have %d roots, network has %d hubs", len(got), len(want))
	}
	rooted := map[graph.NodeID]bool{}
	for _, h := range got {
		rooted[h] = true
	}
	for _, h := range want {
		if !rooted[h] {
			t.Fatalf("hub %d missing from snapshot label roots %v", h, got)
		}
	}
}
