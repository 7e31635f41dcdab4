package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// TestRegistryCompleteness pins that every historical figure/table id is
// registered — cmd/scenarios must be able to reproduce the full evaluation.
func TestRegistryCompleteness(t *testing.T) {
	want := []string{
		"fig7a", "fig7b", "fig7c", "fig7d",
		"fig8a", "fig8b", "fig8c", "fig8d",
		"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f",
		"figscale", "figscale-xl", "figchurn", "table1", "table2",
		"replay-snapshot", "bursty-hubspoke", "ln-mainnet",
		"jamming", "flash-crowd", "hub-outage",
		"retry-jamming", "retry-flash-crowd", "retry-hub-outage",
	}
	for _, name := range want {
		e, ok := Lookup(name)
		if !ok {
			t.Errorf("registry is missing %q", name)
			continue
		}
		if e.Name != name {
			t.Errorf("entry %q self-reports name %q", name, e.Name)
		}
		if e.Description == "" || e.Title == "" {
			t.Errorf("entry %q lacks title/description", name)
		}
		if e.Kind != KindStatic {
			if err := e.Base.Validate(); err != nil {
				t.Errorf("entry %q base spec invalid: %v", name, err)
			}
		}
	}
	if got := len(Names()); got != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", got, len(want), Names())
	}
}

// TestRegistrySmoke runs a cheap trimmed variant of each runner kind and
// checks determinism across worker counts — the worker-invariance contract
// every entry inherits from the sweep engine.
func TestRegistrySmoke(t *testing.T) {
	small := SmallSpec()
	small.Topology.Nodes = 50
	small.Workload.Rate = 30
	small.Workload.Duration = 2
	small.Routing.HubCandidates = 6

	churn := ChurnSpec()
	churn.Topology.Nodes = 50
	churn.Workload.Rate = 30
	churn.Workload.Duration = 2
	churn.Routing.HubCandidates = 6

	run := func(workers int) string {
		var out strings.Builder
		fig, err := RunFigure(small, Axis{Param: "tau_ms", Values: []float64{200, 800}},
			DefaultSchemes(), MetricTSR, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%v\n", fig)
		tsr, delay, err := RunChurnPanel(churn, []float64{0, 2}, ChurnSchemes(), RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%v %v\n", tsr, delay)
		table, err := SchemeTable(small, []string{"Splicer", "ShortestPath"}, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(table.CSV())
		rows, err := RoutingChoices(small, small, ChoicesOptions{
			PathNumbers: []int{3}, PathTypes: nil, Schedulers: []string{"LIFO"}, SkipLarge: true,
		}, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%v\n", rows)
		return out.String()
	}
	serial := run(1)
	if parallel := run(8); parallel != serial {
		t.Fatalf("8-worker engine output diverged from serial:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestSeedCountReplication checks the -seeds semantics: SeedCount derives
// each base spec's seed list from its own seed, and a point is the mean of
// the single-seed runs over seeds base … base+SeedCount−1.
func TestSeedCountReplication(t *testing.T) {
	small := SmallSpec()
	small.Topology.Nodes = 40
	small.Workload.Rate = 30
	small.Workload.Duration = 2
	small.Routing.HubCandidates = 5

	axis := Axis{Param: "tau_ms", Values: []float64{400}}
	tsr := func(spec Spec, opts RunOptions) float64 {
		t.Helper()
		series, err := RunFigure(spec, axis, []string{"Splicer"}, MetricTSR, opts)
		if err != nil {
			t.Fatal(err)
		}
		return series[0].Points[0].Y
	}
	three := tsr(small, RunOptions{SeedCount: 3, Workers: -1})
	sum := 0.0
	for i := uint64(0); i < 3; i++ {
		spec := small
		spec.Seed = small.Seed + i
		sum += tsr(spec, RunOptions{})
	}
	if want := sum / 3; three != want {
		t.Fatalf("SeedCount=3 mean %v != mean of the three single-seed runs %v", three, want)
	}
	if one := tsr(small, RunOptions{}); one == three {
		t.Log("warning: single-seed and 3-seed means coincide; weak but not fatal")
	}
}

// TestEntryRunErrorsSurface pins the error-propagation satellite at the
// engine level: a spec that fails to build (an unbuildable topology) must
// surface through Entry.Run instead of vanishing into an empty table.
func TestEntryRunErrorsSurface(t *testing.T) {
	bad := SmallSpec()
	bad.Topology.Degree = 7 // Watts-Strogatz requires even degree: build-time error
	e := &Entry{
		Name: "bad", Title: "bad", Kind: KindFigure, Base: bad, XLabel: "tau_ms",
		Axis:    Axis{Param: "tau_ms", Values: []float64{200}},
		Schemes: []string{"Splicer"}, Metric: MetricTSR,
	}
	if _, err := e.Run(RunOptions{}); err == nil || !strings.Contains(err.Error(), "topology") {
		t.Fatalf("entry with unbuildable topology: err = %v", err)
	}
	// Same for a workload that generates an empty trace.
	bad2 := SmallSpec()
	bad2.Workload.Rate = 0.0001
	bad2.Workload.Duration = 0.001
	e2 := &Entry{
		Name: "bad2", Title: "bad2", Kind: KindFigure, Base: bad2, XLabel: "tau_ms",
		Axis:    Axis{Param: "tau_ms", Values: []float64{200}},
		Schemes: []string{"Splicer"}, Metric: MetricTSR,
	}
	if _, err := e2.Run(RunOptions{}); err == nil {
		t.Fatal("entry with empty workload ran without error")
	}
}

// TestLookupEntriesArePrivate pins that Lookup hands each caller an entry
// nothing else can reach: editing it — its slices, and the nested blocks of
// a trimmed copy of its Base — leaves every later Lookup as it was.
func TestLookupEntriesArePrivate(t *testing.T) {
	state := func(e *Entry) string {
		var b strings.Builder
		for _, s := range []*Spec{&e.Base, e.BaseLarge} {
			if s == nil {
				continue
			}
			js, err := s.JSON()
			if err != nil {
				t.Fatal(err)
			}
			b.Write(js)
		}
		fmt.Fprintf(&b, "%v %v %v", e.Axis, e.Schemes, e.Omegas)
		if e.Choices != nil {
			fmt.Fprintf(&b, " %+v", *e.Choices)
		}
		return b.String()
	}
	for _, name := range Names() {
		e, _ := Lookup(name)
		want := state(e)
		for _, s := range []*Spec{&e.Base, e.BaseLarge} {
			if s == nil {
				continue
			}
			c := *s
			if c.Attack != nil {
				c.Attack.Start++
			}
			if c.Dynamics != nil {
				c.Dynamics.ChurnRate++
			}
			if c.Routing.Retry != nil {
				c.Routing.Retry.MaxAttempts++
			}
			if c.Workload.OnOff != nil {
				c.Workload.OnOff.MeanOn++
			}
			s.Seed++
		}
		for i := range e.Axis.Values {
			e.Axis.Values[i]++
		}
		for i := range e.Schemes {
			e.Schemes[i] += "x"
		}
		for i := range e.Omegas {
			e.Omegas[i]++
		}
		if e.Choices != nil {
			e.Choices.SkipLarge = !e.Choices.SkipLarge
		}
		again, _ := Lookup(name)
		if got := state(again); got != want {
			t.Errorf("%s: editing one looked-up entry changed the next Lookup:\nbefore: %s\nafter:  %s", name, want, got)
		}
	}
}
