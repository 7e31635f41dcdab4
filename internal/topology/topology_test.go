package topology

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
)

func TestWattsStrogatzBasics(t *testing.T) {
	src := rng.New(1)
	g, err := WattsStrogatz(src, 100, 4, 0.25, uniformCapacity(100))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Ring lattice has n*k/2 edges; rewiring preserves count, stitching may
	// add a few.
	if g.NumEdges() < 200 {
		t.Fatalf("edges = %d, want >= 200", g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("graph not connected")
	}
}

func TestWattsStrogatzDeterministic(t *testing.T) {
	g1, err := WattsStrogatz(rng.New(7), 50, 4, 0.3, uniformCapacity(10))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := WattsStrogatz(rng.New(7), 50, 4, 0.3, uniformCapacity(10))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", g1.NumEdges(), g2.NumEdges())
	}
	for i := 0; i < g1.NumEdges(); i++ {
		e1, e2 := g1.Edge(graph.EdgeID(i)), g2.Edge(graph.EdgeID(i))
		if e1.U != e2.U || e1.V != e2.V {
			t.Fatalf("edge %d differs: %v-%v vs %v-%v", i, e1.U, e1.V, e2.U, e2.V)
		}
	}
}

func TestWattsStrogatzZeroBetaIsRing(t *testing.T) {
	g, err := WattsStrogatz(rng.New(1), 10, 2, 0, uniformCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 10 {
		t.Fatalf("edges = %d, want 10 (pure ring)", g.NumEdges())
	}
	for i := 0; i < 10; i++ {
		if !g.HasEdgeBetween(graph.NodeID(i), graph.NodeID((i+1)%10)) {
			t.Fatalf("missing ring edge %d-%d", i, (i+1)%10)
		}
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	src := rng.New(1)
	cases := []struct {
		n, k int
		beta float64
	}{
		{0, 2, 0.1},
		{10, 3, 0.1},  // odd k
		{10, 0, 0.1},  // k too small
		{4, 4, 0.1},   // k >= n
		{10, 2, -0.1}, // bad beta
		{10, 2, 1.5},
	}
	for _, c := range cases {
		if _, err := WattsStrogatz(src, c.n, c.k, c.beta, uniformCapacity(1)); err == nil {
			t.Fatalf("expected error for n=%d k=%d beta=%v", c.n, c.k, c.beta)
		}
	}
}

func TestBarabasiAlbertDegreeSkew(t *testing.T) {
	src := rng.New(3)
	g, err := BarabasiAlbert(src, 300, 2, uniformCapacity(10))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("BA graph not connected")
	}
	// Scale-free: max degree far above the mean.
	maxDeg, sum := 0, 0
	for i := 0; i < g.NumNodes(); i++ {
		d := g.Degree(graph.NodeID(i))
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / float64(g.NumNodes())
	if float64(maxDeg) < 3*mean {
		t.Fatalf("max degree %d not heavy-tailed vs mean %.1f", maxDeg, mean)
	}
}

// TestBarabasiAlbertRepeatable pins that one seed yields one graph: the
// generator used to wire each new node by ranging over a map, so edge ids,
// capacity draws and adjacency order differed from call to call.
func TestBarabasiAlbertRepeatable(t *testing.T) {
	build := func() string {
		src := rng.New(11)
		caps := src.Split(1)
		g, err := BarabasiAlbert(src.Split(2), 500, 3, func() (float64, float64) {
			return 1 + caps.Float64(), 1 + caps.Float64()
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := build()
	for i := 0; i < 4; i++ {
		if build() != first {
			t.Fatalf("build %d differs from the first build of the same seed", i+2)
		}
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	src := rng.New(1)
	if _, err := BarabasiAlbert(src, 5, 0, uniformCapacity(1)); err == nil {
		t.Fatal("expected error for m=0")
	}
	if _, err := BarabasiAlbert(src, 2, 2, uniformCapacity(1)); err == nil {
		t.Fatal("expected error for n<=m")
	}
}

func TestTopDegreeNodes(t *testing.T) {
	g := graph.New(8) // a star: node 0 is the hub
	for i := 1; i < 8; i++ {
		if _, err := g.AddEdge(0, graph.NodeID(i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	top := TopDegreeNodes(g, 3)
	if len(top) != 3 || top[0] != 0 {
		t.Fatalf("top = %v, want hub (0) first", top)
	}
	all := TopDegreeNodes(g, 100)
	if len(all) != 8 {
		t.Fatalf("k>n should clamp: got %d", len(all))
	}
}

func TestPropertyGeneratorsAlwaysConnected(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%80 + 20
		src := rng.New(seed)
		ws, err := WattsStrogatz(src, n, 4, 0.5, uniformCapacity(10))
		if err != nil || !ws.Connected() {
			return false
		}
		ba, err := BarabasiAlbert(src, n, 2, uniformCapacity(10))
		if err != nil || !ba.Connected() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// uniformCapacity deposits the same fixed funds on both sides of every
// channel.
func uniformCapacity(c float64) CapacityFunc {
	return func() (float64, float64) { return c, c }
}
