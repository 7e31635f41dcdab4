package scenario

import (
	"math"
	"reflect"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// finderTailLandmark is the Landmark policy with every landmark→recipient
// tail searched by the exact finder, as the policy planned before it owned
// per-landmark trees — the reference the tree-served tails are compared
// against. Everything but Plan is the registered policy's.
type finderTailLandmark struct {
	pcn.SchemePolicy
	landmarks []graph.NodeID
}

func newFinderTailLandmark(t *testing.T) *finderTailLandmark {
	t.Helper()
	// The registered policy is reachable only through a network built with
	// it; its Setup runs again on the network under test.
	g := graph.New(3)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}} {
		if _, err := g.AddEdge(e[0], e[1], 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	n, err := pcn.NewNetwork(g, pcn.NewConfig(pcn.SchemeLandmark))
	if err != nil {
		t.Fatal(err)
	}
	return &finderTailLandmark{SchemePolicy: n.Policy()}
}

func (p *finderTailLandmark) Setup(n *pcn.Network) error {
	if err := p.SchemePolicy.Setup(n); err != nil {
		return err
	}
	p.landmarks = topology.TopDegreeNodes(n.Graph(), n.Config().NumPaths)
	return nil
}

func (p *finderTailLandmark) Plan(n *pcn.Network, tx workload.Tx) ([]graph.Path, []pcn.Allocation, error) {
	key := pcn.RouteKey{Src: tx.Sender, Dst: tx.Recipient, Type: pcn.ComposedRoutes, K: n.Config().NumPaths}
	paths, err := n.Routes().GetOrCompute(key, func() ([]graph.Path, error) {
		pf := n.PathFinder()
		heads := make([]graph.NodeID, len(p.landmarks))
		for i, lm := range p.landmarks {
			if lm == tx.Sender || lm == tx.Recipient {
				heads[i] = tx.Recipient
			} else {
				heads[i] = lm
			}
		}
		headPaths := pf.UnitShortestPaths(tx.Sender, heads)
		var out []graph.Path
		for i, lm := range p.landmarks {
			p1 := headPaths[i]
			if lm == tx.Sender || lm == tx.Recipient {
				if p1.Len() > 0 || tx.Sender == tx.Recipient {
					out = append(out, p1)
				}
				continue
			}
			if p1.Len() == 0 {
				continue
			}
			if p2, ok := pf.UnitShortestPath(lm, tx.Recipient); ok {
				out = append(out, graph.Path{
					Nodes: append(append([]graph.NodeID(nil), p1.Nodes...), p2.Nodes[1:]...),
					Edges: append(append([]graph.EdgeID(nil), p1.Edges...), p2.Edges...),
				})
			}
		}
		return out, nil
	})
	if err != nil || len(paths) == 0 {
		return nil, nil, err
	}
	allocs := make([]pcn.Allocation, len(paths))
	for i := range paths {
		allocs[i] = pcn.Allocation{PathIdx: i, Value: tx.Value / float64(len(paths))}
	}
	return paths, allocs, nil
}

// TestLandmarkTreeTailsMatchFinder pins that serving Landmark's tails from
// the policy-owned trees moves nothing: on a static cell, a churned cell
// (the trees repair from the shape journal) and a jammed cell with retries
// armed, the whole Result — route-cache counters included — equals the
// finder-served reference field for field.
func TestLandmarkTreeTailsMatchFinder(t *testing.T) {
	base := func(name string) Spec {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("registry is missing %q", name)
		}
		return e.Base
	}
	for _, cell := range []struct {
		name, param string
		x           float64
	}{
		{"fig7c", "tau_ms", 200},
		{"figchurn", "churn_rate", 4},
		{"retry-jamming", "attack_intensity", 30},
	} {
		name := cell.name
		s, err := base(name).withParam(cell.param, cell.x)
		if err != nil {
			t.Fatal(err)
		}
		trees, err := s.RunScheme(pcn.SchemeLandmark)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st, err := s.beginBuild()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.config(pcn.SchemeLandmark, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = newFinderTailLandmark(t)
		finder, err := s.runConfig(st, cfg)
		if err != nil {
			t.Fatalf("%s (finder tails): %v", name, err)
		}
		if trees.Generated == 0 || trees.RouteCacheMisses == 0 {
			t.Fatalf("%s: cell planned nothing: %+v", name, trees)
		}
		// NaN means "no samples"; matched NaNs compare equal here.
		for _, f := range []*float64{&trees.MeanDelay, &finder.MeanDelay, &trees.MeanQueueDelay, &finder.MeanQueueDelay} {
			if math.IsNaN(*f) {
				*f = -1
			}
		}
		if !reflect.DeepEqual(trees, finder) {
			t.Errorf("%s: tree-served tails diverge from finder-served:\ntrees  %+v\nfinder %+v", name, trees, finder)
		}
	}
}
