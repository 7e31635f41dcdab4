package dynamics

// Serving-mode integration: the dynamics driver is the writer role of the
// snapshot architecture — every structural event it applies lands in a
// Network mutator, which publishes the next epoch through InvalidateRoutes.
// These tests pin that a full dynamics-driven run over a snapshot-enabled
// network produces a monotone, consistent epoch sequence, and that enabling
// snapshots does not perturb the run itself.

import (
	"reflect"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
)

func TestDriverPublishesEpochsUnderChurn(t *testing.T) {
	n := testNetwork(t, 91, 60, pcn.SchemeSplicer)
	st := n.EnableSnapshots()
	if st.Epoch() != 1 {
		t.Fatalf("EnableSnapshots published epoch %d, want 1", st.Epoch())
	}
	cfg := testConfig()
	cfg.ReplaceInterval = 2
	d, err := NewDriver(n, rng.New(92), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runDriver(d); err != nil {
		t.Fatal(err)
	}

	applied := 0
	for _, a := range d.applied {
		if a.Skipped == "" {
			applied++
		}
	}
	if applied == 0 {
		t.Fatal("timeline applied no structural events; test is vacuous")
	}
	// Every applied shape event publishes; the final epoch must reflect at
	// least that much churn (capacity-only events may share epochs).
	if st.Epoch() < 2 {
		t.Fatalf("run with %d applied events finished at epoch %d", applied, st.Epoch())
	}
	stats := st.Stats()
	if stats.ActivePins != 0 {
		t.Fatalf("run leaked %d pins", stats.ActivePins)
	}

	// The final epoch serves the final topology, consistently.
	s := st.Acquire()
	defer s.Release()
	if err := graph.ValidateSnapshot(s.Graph()); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Graph().NumLiveEdges(), n.Graph().NumLiveEdges(); got != want {
		t.Fatalf("final epoch has %d live edges, live graph has %d", got, want)
	}
}

// TestSnapshotsDoNotPerturbDrivenRun pins the batch-equivalence contract at
// the dynamics layer: the same seeded run produces an identical Result and
// applied-event log with and without a snapshot store attached.
func TestSnapshotsDoNotPerturbDrivenRun(t *testing.T) {
	run := func(enable bool) (pcn.Result, []Applied) {
		n := testNetwork(t, 93, 60, pcn.SchemeSplicer)
		if enable {
			n.EnableSnapshots()
		}
		d, err := NewDriver(n, rng.New(94), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := runDriver(d)
		if err != nil {
			t.Fatal(err)
		}
		return res, d.applied
	}
	plainRes, plainLog := run(false)
	snapRes, snapLog := run(true)
	if !reflect.DeepEqual(plainRes, snapRes) {
		t.Fatalf("results diverge with snapshots enabled:\nplain %+v\nsnap  %+v", plainRes, snapRes)
	}
	if len(plainLog) != len(snapLog) {
		t.Fatalf("applied logs diverge: %d vs %d events", len(plainLog), len(snapLog))
	}
	for i := range plainLog {
		if plainLog[i] != snapLog[i] {
			t.Fatalf("applied[%d] diverges: %+v vs %+v", i, plainLog[i], snapLog[i])
		}
	}
}
