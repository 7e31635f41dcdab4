package main

import (
	"testing"

	splicer "github.com/splicer-pcn/splicer"
)

// TestSplicerBeatsShortestPath pins the example's conclusion on the spec it
// prints: Splicer's success ratio tops naive shortest-path routing.
func TestSplicerBeatsShortestPath(t *testing.T) {
	spec := deadlockSpec()
	naive, err := spec.RunScheme(splicer.ShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	spl, err := spec.RunScheme(splicer.Splicer)
	if err != nil {
		t.Fatal(err)
	}
	if spl.TSR <= naive.TSR {
		t.Fatalf("Splicer TSR %.4f does not beat shortest-path %.4f", spl.TSR, naive.TSR)
	}
}
