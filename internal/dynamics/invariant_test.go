package dynamics

import (
	"testing"

	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
)

// TestConservationUnderChurn asserts the conservation-of-funds invariant
// over full dynamic runs: joins, departures, channel opens/closes, top-ups,
// rebalancing and (for Splicer) online re-placement with its capital pledges
// all go through the recorded-capital paths, so the live total must still
// match the ledger at the end of the run.
func TestConservationUnderChurn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scheme  pcn.Scheme
		replace float64
	}{
		{"ShortestPath", pcn.SchemeShortestPath, 0},
		{"Splicer", pcn.SchemeSplicer, 0},
		{"Splicer online", pcn.SchemeSplicer, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := testNetwork(t, 31, 50, tc.scheme)
			cfg := testConfig()
			cfg.ReplaceInterval = tc.replace
			d, err := NewDriver(n, rng.New(31).Split(4), cfg)
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
				t.Fatal("churn run applied no structural events; invariant not exercised")
			}
			if err := d.net.CheckConservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
