// Snapshot persistence: a channel graph serialized as CSV, one row per
// channel with both directions' funds. The scenario engine uses snapshots to
// run workloads over captured topologies (e.g. a Lightning-like graph
// checked in as a fixture) instead of freshly generated ones, and to freeze
// a generated topology so two runs are guaranteed the same graph.
package topology

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// snapshotHeader is the canonical column set of a snapshot CSV.
var snapshotHeader = []string{"u", "v", "cap_fwd", "cap_rev"}

// WriteSnapshot serializes the graph's live channels as CSV. Removed
// (tombstoned) edges are skipped, so loading the snapshot reconstructs the
// live topology with freshly dense edge ids.
func WriteSnapshot(w io.Writer, g *graph.Graph) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(snapshotHeader); err != nil {
		return err
	}
	for i := 0; i < g.NumEdges(); i++ {
		id := graph.EdgeID(i)
		if g.EdgeRemoved(id) {
			continue
		}
		e := g.Edge(id)
		rec := []string{
			strconv.Itoa(int(e.U)),
			strconv.Itoa(int(e.V)),
			strconv.FormatFloat(e.CapFwd, 'g', -1, 64),
			strconv.FormatFloat(e.CapRev, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSnapshot parses a snapshot CSV into a graph. The node count is the
// highest endpoint id plus one; every row becomes one channel. Rows are
// validated (non-negative ids, non-negative funds, no self-loops) so a
// malformed fixture fails loudly rather than producing a silently wrong
// topology.
func ReadSnapshot(r io.Reader) (*graph.Graph, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("topology: snapshot: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("topology: snapshot: empty file")
	}
	if len(records[0]) != len(snapshotHeader) || records[0][0] != "u" {
		return nil, fmt.Errorf("topology: snapshot: missing header %v", snapshotHeader)
	}
	rows := records[1:]
	if len(rows) == 0 {
		return nil, fmt.Errorf("topology: snapshot: no channels")
	}
	type edge struct {
		u, v     int
		fwd, rev float64
	}
	edges := make([]edge, 0, len(rows))
	maxNode := -1
	for i, rec := range rows {
		var e edge
		var errs [4]error
		e.u, errs[0] = strconv.Atoi(rec[0])
		e.v, errs[1] = strconv.Atoi(rec[1])
		e.fwd, errs[2] = strconv.ParseFloat(rec[2], 64)
		e.rev, errs[3] = strconv.ParseFloat(rec[3], 64)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("topology: snapshot row %d: %w", i+1, err)
			}
		}
		if e.u < 0 || e.v < 0 {
			return nil, fmt.Errorf("topology: snapshot row %d: negative node id", i+1)
		}
		if e.u == e.v {
			return nil, fmt.Errorf("topology: snapshot row %d: self-loop on node %d", i+1, e.u)
		}
		if e.fwd < 0 || e.rev < 0 {
			return nil, fmt.Errorf("topology: snapshot row %d: negative capacity", i+1)
		}
		if e.u > maxNode {
			maxNode = e.u
		}
		if e.v > maxNode {
			maxNode = e.v
		}
		edges = append(edges, e)
	}
	g := graph.New(maxNode + 1)
	for i, e := range edges {
		if _, err := g.AddEdge(graph.NodeID(e.u), graph.NodeID(e.v), e.fwd, e.rev); err != nil {
			return nil, fmt.Errorf("topology: snapshot row %d: %w", i+1, err)
		}
	}
	return g, nil
}
