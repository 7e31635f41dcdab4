package graph

// Tests for the epoch-snapshot store: publication semantics (incremental
// replay, capacity sharing, overflow resync), pin/recycle lifecycle, reader
// isolation under concurrent churn (-race), and equivalence of snapshot
// reads — including LabelView — with live-graph reads.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSnapshotPublishAcquire(t *testing.T) {
	g := randomTestGraph(t, 900, 30, 50)
	st := NewSnapshotStore(nil)
	if st.Acquire() != nil {
		t.Fatal("Acquire before first publish must return nil")
	}
	if st.Epoch() != 0 {
		t.Fatalf("epoch before first publish = %d", st.Epoch())
	}
	epoch, published := st.Publish(g, false)
	if !published || epoch != 1 {
		t.Fatalf("first publish = (%d, %v), want (1, true)", epoch, published)
	}
	s := st.Acquire()
	if s == nil || s.Epoch() != 1 {
		t.Fatalf("acquired %+v, want epoch 1", s)
	}
	if err := ValidateSnapshot(s.Graph()); err != nil {
		t.Fatal(err)
	}
	if s.Graph() == g {
		t.Fatal("snapshot must not share the live graph object")
	}
	if got := st.ActivePins(); got != 1 {
		t.Fatalf("ActivePins = %d, want 1", got)
	}
	s.Release()
	if got := st.ActivePins(); got != 0 {
		t.Fatalf("ActivePins after release = %d, want 0", got)
	}

	// No delta: same epoch, nothing published.
	if epoch, published = st.Publish(g, false); published || epoch != 1 {
		t.Fatalf("no-delta publish = (%d, %v), want (1, false)", epoch, published)
	}
	if stats := st.Stats(); stats.SharedNoop != 1 {
		t.Fatalf("SharedNoop = %d, want 1", stats.SharedNoop)
	}
}

func TestSnapshotCapacityOnlySharesEpoch(t *testing.T) {
	g := randomTestGraph(t, 901, 30, 50)
	st := NewSnapshotStore(nil)
	st.Publish(g, false)
	s := st.Acquire()
	defer s.Release()
	oldCap := s.Graph().Edge(0).CapFwd

	// A top-up alone does not move the epoch: readers keep the (stale by
	// design) capacity view until the next shape change or forced refresh.
	g.SetCapacity(0, 12345, 54321)
	if epoch, published := st.Publish(g, false); published || epoch != 1 {
		t.Fatalf("capacity-only publish = (%d, %v), want (1, false)", epoch, published)
	}
	if stats := st.Stats(); stats.SharedCapacity != 1 {
		t.Fatalf("SharedCapacity = %d, want 1", stats.SharedCapacity)
	}
	if got := s.Graph().Edge(0).CapFwd; got != oldCap {
		t.Fatalf("shared snapshot capacity moved: %g -> %g", oldCap, got)
	}

	// Forced: new epoch with the fresh capacities.
	if epoch, published := st.Publish(g, true); !published || epoch != 2 {
		t.Fatalf("forced publish = (%d, %v), want (2, true)", epoch, published)
	}
	s2 := st.Acquire()
	defer s2.Release()
	if got := s2.Graph().Edge(0).CapFwd; got != 12345 {
		t.Fatalf("forced snapshot capacity = %g, want 12345", got)
	}
	if err := ValidateSnapshot(s2.Graph()); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIncrementalReplay(t *testing.T) {
	g := randomTestGraph(t, 902, 40, 80)
	st := NewSnapshotStore(nil)
	st.Publish(g, false)
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 30; round++ {
		for i := 0; i < 5; i++ {
			churnStep(rng, g)
		}
		// force: a round of pure top-ups would otherwise share the previous
		// epoch, whose capacities are stale by design.
		st.Publish(g, true)
		s := st.Acquire()
		if err := ValidateSnapshot(s.Graph()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		assertSnapshotMatchesLive(t, s.Graph(), g)
		s.Release()
	}
	stats := st.Stats()
	// Two buffers alternate; each needs one initial full build, everything
	// after must ride the journal.
	if stats.FullBuilds > uint64(stats.Buffers) || stats.Resyncs != 0 {
		t.Fatalf("builds not incremental: %+v", stats)
	}
	if stats.IncrementalBuilds == 0 {
		t.Fatalf("no incremental builds recorded: %+v", stats)
	}
}

// assertSnapshotMatchesLive checks the snapshot graph is structurally
// identical to the live graph: same shape, same adjacency order (Dijkstra
// tie-breaks are observable), same capacities.
func assertSnapshotMatchesLive(t *testing.T, snap, live *Graph) {
	t.Helper()
	if snap.NumNodes() != live.NumNodes() || snap.NumEdges() != live.NumEdges() || snap.NumLiveEdges() != live.NumLiveEdges() {
		t.Fatalf("shape mismatch: snap %d/%d/%d live %d/%d/%d",
			snap.NumNodes(), snap.NumEdges(), snap.NumLiveEdges(),
			live.NumNodes(), live.NumEdges(), live.NumLiveEdges())
	}
	for u := 0; u < live.NumNodes(); u++ {
		sa, la := snap.Incident(NodeID(u)), live.Incident(NodeID(u))
		if len(sa) != len(la) {
			t.Fatalf("node %d: %d vs %d incident edges", u, len(sa), len(la))
		}
		for i := range la {
			if sa[i] != la[i] {
				t.Fatalf("node %d arc %d: edge %d vs %d (order must match)", u, i, sa[i], la[i])
			}
		}
	}
	for id := 0; id < live.NumEdges(); id++ {
		if snap.EdgeRemoved(EdgeID(id)) != live.EdgeRemoved(EdgeID(id)) {
			t.Fatalf("edge %d: tombstone mismatch", id)
		}
		if live.EdgeRemoved(EdgeID(id)) {
			continue
		}
		se, le := snap.Edge(EdgeID(id)), live.Edge(EdgeID(id))
		if se != le {
			t.Fatalf("edge %d: %+v vs %+v", id, se, le)
		}
	}
}

func TestSnapshotJournalOverflowResyncs(t *testing.T) {
	g := randomTestGraph(t, 903, 20, 30)
	st := NewSnapshotStore(nil)
	// Warm both buffers so the overflow lands on a previously synced buffer
	// (a first-use full build is not a resync).
	st.Publish(g, false)
	g.AddNode()
	st.Publish(g, false)
	// Blow the live journal past the retained window between publishes.
	for i := 0; i < maxJournal+10; i++ {
		id, err := g.AddEdge(NodeID(i%20), NodeID((i+1)%20), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RemoveEdge(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, published := st.Publish(g, false); !published {
		t.Fatal("overflowed publish did not publish")
	}
	if stats := st.Stats(); stats.Resyncs == 0 {
		t.Fatalf("journal overflow did not force a resync: %+v", stats)
	}
	s := st.Acquire()
	defer s.Release()
	if err := ValidateSnapshot(s.Graph()); err != nil {
		t.Fatal(err)
	}
	assertSnapshotMatchesLive(t, s.Graph(), g)
}

func TestSnapshotPinnedBufferNotRecycled(t *testing.T) {
	g := randomTestGraph(t, 904, 20, 30)
	st := NewSnapshotStore(nil)
	st.Publish(g, false)
	old := st.Acquire() // pin epoch 1
	oldNodes := old.Graph().NumNodes()

	// Publish several epochs while the pin is held: the pinned buffer must
	// never be rewritten underneath the reader.
	for i := 0; i < 4; i++ {
		g.AddNode()
		st.Publish(g, false)
	}
	if got := old.Graph().NumNodes(); got != oldNodes {
		t.Fatalf("pinned snapshot mutated: %d -> %d nodes", oldNodes, got)
	}
	if err := ValidateSnapshot(old.Graph()); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Buffers < 3 {
		t.Fatalf("expected a third buffer while two were held, got %+v", stats)
	}
	old.Release()

	// With the pin gone, further publishes recycle instead of growing.
	before := st.Stats().Buffers
	for i := 0; i < 4; i++ {
		g.AddNode()
		st.Publish(g, false)
	}
	after := st.Stats()
	if after.Buffers != before {
		t.Fatalf("buffer pool grew after release: %d -> %d", before, after.Buffers)
	}
	if after.Recycled == 0 {
		t.Fatalf("no recycling recorded: %+v", after)
	}
}

func TestSnapshotSetRootsForcesRelabel(t *testing.T) {
	g := randomTestGraph(t, 905, 30, 60)
	st := NewSnapshotStore([]NodeID{1, 2})
	st.Publish(g, false)
	s := st.Acquire()
	v, ok := s.Labels()
	if !ok {
		t.Fatal("no label view on rooted snapshot")
	}
	if got := v.Hubs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("hubs = %v, want [1 2]", got)
	}
	s.Release()

	// Same topology, new roots: Publish must still cut a new epoch.
	st.SetRoots([]NodeID{5})
	if epoch, published := st.Publish(g, false); !published || epoch != 2 {
		t.Fatalf("post-SetRoots publish = (%d, %v), want (2, true)", epoch, published)
	}
	s2 := st.Acquire()
	defer s2.Release()
	v2, _ := s2.Labels()
	if got := v2.Hubs(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("hubs after SetRoots = %v, want [5]", got)
	}
}

// TestSnapshotEquivalence pins the core serving contract: every query
// against a published snapshot returns byte-identical paths to the same
// query against the live graph at publication time — including label-served
// answers through a LabelView.
func TestSnapshotEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g := randomTestGraph(t, 906, 50, 100)
	roots := []NodeID{3, 17, 31}
	st := NewSnapshotStore(roots)
	livePF := NewPathFinder(g)
	snapPF := NewPathFinder(g)
	for round := 0; round < 20; round++ {
		st.Publish(g, true) // force so widest-path capacities match live
		s := st.Acquire()
		sg := s.Graph()
		snapPF.Rebind(sg)
		v, ok := s.Labels()
		if !ok {
			t.Fatal("no label view")
		}
		n := g.NumNodes()
		for q := 0; q < 30; q++ {
			src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			lp, lok := livePF.UnitShortestPath(src, dst)
			sp, sok := snapPF.UnitShortestPath(src, dst)
			if lok != sok || (lok && !lp.Equal(sp)) {
				t.Fatalf("round %d: unit path diverges for %d->%d", round, src, dst)
			}
			hub := roots[q%len(roots)]
			vk := v.KShortestPathsUnit(snapPF, hub, dst, 3)
			lk := livePF.KShortestPathsUnit(hub, dst, 3)
			if len(vk) != len(lk) {
				t.Fatalf("round %d: KSP count diverges for %d->%d", round, hub, dst)
			}
			for i := range vk {
				if !vk[i].Equal(lk[i]) {
					t.Fatalf("round %d: KSP[%d] diverges for %d->%d", round, i, hub, dst)
				}
			}
			wp, wok := livePF.widestPath(src, dst, false)
			ws, wsok := snapPF.widestPath(src, dst, false)
			if wok != wsok || (wok && !wp.Equal(ws)) {
				t.Fatalf("round %d: widest path diverges for %d->%d", round, src, dst)
			}
		}
		s.Release()
		// Mutate AFTER the comparisons so live and snapshot agree per round.
		for i := 0; i < 6; i++ {
			churnStep(rng, g)
		}
		// churnStep may remove a root's last edge; labels handle that (the
		// hub just becomes unreachable-from), nothing to fix up here.
	}
}

// TestSnapshotChurnVsReaders is the -race acceptance test: one writer
// mutates the live graph and publishes, N readers pin epochs and query.
// Readers must never observe a half-applied mutation (ValidateSnapshot
// checks full structural consistency) and every returned path must be valid
// against the pinned snapshot.
func TestSnapshotChurnVsReaders(t *testing.T) {
	const readers = 8
	const rounds = 120
	g := randomTestGraph(t, 907, 60, 120)
	st := NewSnapshotStore([]NodeID{2, 9, 21})
	st.Publish(g, false)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)

	wg.Add(1)
	go func() { // the single writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for round := 0; round < rounds; round++ {
			for i := 0; i < 4; i++ {
				churnStep(rng, g)
			}
			st.Publish(g, round%10 == 0)
		}
		stop.Store(true)
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var pf *PathFinder // created from the first pinned snapshot, never from the live graph
			var lastEpoch uint64
			for !stop.Load() {
				s := st.Acquire()
				if s == nil {
					continue
				}
				if e := s.Epoch(); e < lastEpoch {
					errs <- errEpochWentBackwards(lastEpoch, e)
					s.Release()
					return
				} else {
					lastEpoch = e
				}
				sg := s.Graph()
				if err := ValidateSnapshot(sg); err != nil {
					errs <- err
					s.Release()
					return
				}
				if pf == nil {
					pf = NewPathFinder(sg)
				} else {
					pf.Rebind(sg)
				}
				n := sg.NumNodes()
				for q := 0; q < 5; q++ {
					src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
					if p, ok := pf.UnitShortestPath(src, dst); ok && !p.Valid(sg) {
						errs <- errInvalidPath(s.Epoch(), src, dst)
						s.Release()
						return
					}
					if v, ok := s.Labels(); ok {
						hubs := v.Hubs()
						for _, p := range v.KShortestPathsUnit(pf, hubs[q%len(hubs)], dst, 1) {
							if !p.Valid(sg) {
								errs <- errInvalidPath(s.Epoch(), hubs[q%len(hubs)], dst)
								s.Release()
								return
							}
						}
					}
				}
				s.Release()
			}
		}(int64(100 + r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if pins := st.ActivePins(); pins != 0 {
		t.Fatalf("leaked %d pins", pins)
	}
}

type snapshotTestError string

func (e snapshotTestError) Error() string { return string(e) }

func errEpochWentBackwards(from, to uint64) error {
	return snapshotTestError("epoch went backwards: " + itoa(from) + " -> " + itoa(to))
}

func errInvalidPath(epoch uint64, src, dst NodeID) error {
	return snapshotTestError("epoch " + itoa(epoch) + ": invalid path " + itoa(uint64(src)) + "->" + itoa(uint64(dst)))
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestLabelViewRequiresBuildAll(t *testing.T) {
	g := randomTestGraph(t, 908, 20, 30)
	hl := NewHubLabels(g, nil, []NodeID{1})
	defer func() {
		if recover() == nil {
			t.Fatal("View over unbuilt labels did not panic")
		}
	}()
	hl.View()
}

func TestLabelViewServesWithoutMutation(t *testing.T) {
	g := randomTestGraph(t, 909, 30, 60)
	hl := NewHubLabels(g, nil, []NodeID{4, 7})
	hl.BuildAll()
	before := hl.Stats()
	v := hl.View()
	pf := NewPathFinder(g)
	for dst := 0; dst < g.NumNodes(); dst++ {
		vp := v.KShortestPathsUnit(pf, 4, NodeID(dst), 1)
		hp := pf.KShortestPathsUnit(4, NodeID(dst), 1)
		if len(vp) != len(hp) || len(vp) > 0 && !vp[0].Equal(hp[0]) {
			t.Fatalf("view path diverges for 4->%d", dst)
		}
	}
	if after := hl.Stats(); after != before {
		t.Fatalf("view reads mutated label stats: %+v -> %+v", before, after)
	}
}
