package topology

import (
	"bytes"
	"strings"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
)

func TestSnapshotRoundTrip(t *testing.T) {
	src := rng.New(11)
	g, err := WattsStrogatz(src, 40, 4, 0.25, uniformCapacity(100))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumLiveEdges() != g.NumLiveEdges() {
		t.Fatalf("round trip: %d nodes / %d edges, want %d / %d",
			got.NumNodes(), got.NumLiveEdges(), g.NumNodes(), g.NumLiveEdges())
	}
	for i := 0; i < g.NumEdges(); i++ {
		want, have := g.Edge(graph.EdgeID(i)), got.Edge(graph.EdgeID(i))
		if want.U != have.U || want.V != have.V || want.CapFwd != have.CapFwd || want.CapRev != have.CapRev {
			t.Fatalf("edge %d: got %+v, want %+v", i, have, want)
		}
	}
	// A second serialization is byte-identical (snapshots are canonical).
	var buf2 bytes.Buffer
	if err := WriteSnapshot(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot round trip is not canonical")
	}
}

func TestSnapshotSkipsRemovedEdges(t *testing.T) {
	g := graph.New(3)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}} {
		if _, err := g.AddEdge(e[0], e[1], 10, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.RemoveEdge(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 2 {
		t.Fatalf("snapshot kept %d edges, want 2 (removed edge skipped)", got.NumEdges())
	}
}

func TestReadSnapshotRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"no header":    "0,1,5,5\n",
		"no channels":  "u,v,cap_fwd,cap_rev\n",
		"bad int":      "u,v,cap_fwd,cap_rev\nx,1,5,5\n",
		"self loop":    "u,v,cap_fwd,cap_rev\n2,2,5,5\n",
		"negative id":  "u,v,cap_fwd,cap_rev\n-1,1,5,5\n",
		"negative cap": "u,v,cap_fwd,cap_rev\n0,1,-5,5\n",
	}
	for name, in := range cases {
		if _, err := ReadSnapshot(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadSnapshot accepted malformed input", name)
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	src := rng.New(7)
	g, err := ErdosRenyi(src, 60, 0.08, uniformCapacity(50))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 60 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("ErdosRenyi graph not connected")
	}
	// Expected edge count ~ p*n*(n-1)/2 = 141.6; allow wide slack but catch
	// degenerate outputs (ensureConnected adds at most a few).
	if e := g.NumEdges(); e < 80 || e > 240 {
		t.Fatalf("edge count %d wildly off expectation ~142", e)
	}
	// Determinism.
	g2, err := ErdosRenyi(rng.New(7), 60, 0.08, uniformCapacity(50))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("same seed gave %d vs %d edges", g2.NumEdges(), g.NumEdges())
	}
	if _, err := ErdosRenyi(src, 1, 0.5, uniformCapacity(1)); err == nil {
		t.Fatal("accepted n=1")
	}
	if _, err := ErdosRenyi(src, 10, 1.5, uniformCapacity(1)); err == nil {
		t.Fatal("accepted p>1")
	}
}

func TestHierarchicalHubSpoke(t *testing.T) {
	src := rng.New(5)
	g, hubTier, err := HierarchicalHubSpoke(src, 3, 2, 5, uniformCapacity(1000), uniformCapacity(400), uniformCapacity(100))
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := 3 + 6 + 30
	if g.NumNodes() != wantNodes {
		t.Fatalf("nodes = %d, want %d", g.NumNodes(), wantNodes)
	}
	if len(hubTier) != 9 {
		t.Fatalf("hub tier = %d, want 9", len(hubTier))
	}
	if !g.Connected() {
		t.Fatal("hub-spoke graph not connected")
	}
	// Leaves have degree exactly 1, onto a mid-tier hub.
	for i := 9; i < wantNodes; i++ {
		if d := g.Degree(graph.NodeID(i)); d != 1 {
			t.Fatalf("leaf %d degree %d, want 1", i, d)
		}
		e := g.Edge(g.Incident(graph.NodeID(i))[0])
		hub := e.Other(graph.NodeID(i))
		if hub < 3 || hub >= 9 {
			t.Fatalf("leaf %d attached to node %d, want a mid-tier hub in [3,9)", i, hub)
		}
	}
	if _, _, err := HierarchicalHubSpoke(src, 0, 1, 1, uniformCapacity(1), uniformCapacity(1), uniformCapacity(1)); err == nil {
		t.Fatal("accepted zero cores")
	}
}
