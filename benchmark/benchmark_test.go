package main

import (
	"math"
	"regexp"
	"testing"
	"time"

	"github.com/splicer-pcn/splicer/internal/scenario"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMAD(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 3}, {50, 5}, {75, 7}, {100, 9}, {90, 8.2}, {99, 8.92},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); !near(got, 2.5) {
		t.Errorf("even-sized median = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
	// Deviations from the median 5 are 4,4,2,2,0: MAD 2. Turning the 7 into
	// 1000 moves the mean to 203.6 and the MAD only to 4.
	if got := mad(xs); !near(got, 2) {
		t.Errorf("mad = %v, want 2", got)
	}
	if got := mad([]float64{9, 1, 5, 3, 1000}); !near(got, 4) {
		t.Errorf("mad with an outlier = %v, want 4", got)
	}
	s := summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Q1 != 3 || s.Median != 5 || s.Q3 != 7 || s.Max != 9 {
		t.Errorf("summarize = %+v", s)
	}
}

// relIQR must agree with Python's statistics.quantiles(xs, n=4), the rule the
// acceptance check uses: for 1..10 it gives quartiles 2.75 and 8.25.
func TestRelIQRMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := relIQR(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("relIQR = %v, want %v", got, want)
	}
	// Two values clamp the rank and extrapolate: Python gives 0.75 and 2.25.
	if got, want := relIQR([]float64{1, 2}), (2.25-0.75)/1.5; !near(got, want) {
		t.Errorf("relIQR of two = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},   // overlaps a: 10..60 covered once
		{Name: "c", Start: 90, End: 120, Parent: 0},  // clipped to the parent's end
		{Name: "a1", Start: 15, End: 20, Parent: 1},  // grandchild: a's business, not op's
		{Name: "open", Start: 5, End: -1, Parent: 0}, // never closed: ignored
	}
	selfTimes(spans)
	if got := spans[0].Self; got != 100-50-10 {
		t.Errorf("op self = %d, want 40", got)
	}
	if got := spans[1].Self; got != 30-5 {
		t.Errorf("a self = %d, want 25", got)
	}
	if got := spans[2].Self; got != 30 {
		t.Errorf("leaf self = %d, want its duration 30", got)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	if id != -1 || tr.end(id) != 0 || tr.durationsMs("x") != nil || tr.write("unused") != nil {
		t.Error("nil tracer must record nothing")
	}
	tr = newTracer()
	root := tr.begin("op", -1, 7)
	child := tr.begin("layer", root, 7)
	tr.end(child)
	tr.end(root)
	if got := tr.childDurationsMs(root); len(got) != 1 || got["layer"] < 0 {
		t.Errorf("childDurationsMs = %v", got)
	}
	if len(tr.durationsMs("op")) != 1 {
		t.Error("closed span not reported")
	}
}

// One connection, 100 req/s, and a server that stalls 50 ms on request 2:
// requests 3 and later were due during the stall, so their latency, counted
// from the due time, must include the wait, and the generator itself must not
// have run late.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	do := func(conn int, r request) (int, []byte, error) {
		if r.Src == 2 {
			time.Sleep(stall)
		}
		return 200, nil, nil
	}
	reqs := make([]request, 10)
	for i := range reqs {
		reqs[i].Src = i
	}
	samples := openLoop(do, 1, reqs, 100, 100*time.Millisecond)
	if len(samples) != 10 {
		t.Fatalf("%d samples, want 10", len(samples))
	}
	for i, s := range samples {
		if gap := s.Due.Sub(samples[0].Due); gap != time.Duration(i)*10*time.Millisecond {
			t.Errorf("request %d due at +%v", i, gap)
		}
	}
	if l := samples[1].latency(); l > 20*time.Millisecond {
		t.Errorf("request before the stall took %v", l)
	}
	// Request 3 was due 10 ms into a 50 ms stall: at least 35 ms of waiting.
	if l := samples[3].latency(); l < 35*time.Millisecond {
		t.Errorf("request 3 latency %v does not include the stall it queued behind", l)
	}
	// Its own service was instant: the wait is between hand-off and send.
	if q := samples[3].Sent.Sub(samples[3].Handed); q < 35*time.Millisecond {
		t.Errorf("request 3 queued for %v", q)
	}
	st := reduceOpenLoop(samples)
	if st.lateP99Ms > 20 {
		t.Errorf("generator ran %v ms late: it must keep its schedule through a server stall", st.lateP99Ms)
	}
	if st.achievedRPS < 60 || st.achievedRPS > 100.01 {
		t.Errorf("achieved %v req/s", st.achievedRPS)
	}
}

func TestClosedLoopCountsAndKeeps(t *testing.T) {
	do := dropBodies(func(conn int, r request) (int, []byte, error) {
		if r.Src == 5 {
			return 503, []byte("x"), nil
		}
		return 200, []byte("x"), nil
	}, 4)
	reqs := make([]request, 40)
	for i := range reqs {
		reqs[i].Src = i
	}
	doneAt, notable, elapsed := closedLoop(do, 2, reqs, time.Second)
	if len(doneAt) != 40 {
		t.Fatalf("answered %d, want all 40", len(doneAt))
	}
	if r := windowRates(doneAt, elapsed); len(r) != 1 || r[0] <= 0 {
		t.Errorf("a phase shorter than one window must give one overall rate, got %v", r)
	}
	kept, bad := 0, 0
	for _, s := range notable {
		if s.Status != 200 {
			bad++
		} else if s.Body != nil {
			kept++
		}
	}
	if bad != 1 || kept < 9 || kept > 10 {
		t.Errorf("notable: %d bad, %d kept bodies; want 1 and one body in four", bad, kept)
	}
}

// Three one-second windows at 10 req/s; the middle one holds a stall. The
// median over windows ignores it, the pooled percentile would not.
func TestWindowsIsolateAStall(t *testing.T) {
	start := time.Now()
	var samples []sample
	var doneAt []time.Duration
	for i := 0; i < 30; i++ {
		due := start.Add(time.Duration(i) * 100 * time.Millisecond)
		lat := time.Millisecond
		if i >= 10 && i < 20 {
			lat = 80 * time.Millisecond
		}
		samples = append(samples, sample{Idx: i, Due: due, Done: due.Add(lat)})
		doneAt = append(doneAt, due.Add(lat).Sub(start))
	}
	p99s := windowPercentiles(samples, 99)
	if len(p99s) != 3 || !near(p99s[0], 1) || !near(p99s[1], 80) || !near(median(p99s), 1) {
		t.Errorf("window p99s = %v", p99s)
	}
	rates := windowRates(doneAt, 3*time.Second)
	if len(rates) != 3 || rates[0] != 10 || median(rates) != 10 {
		t.Errorf("window rates = %v", rates)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, x := range a {
			out[i] = x * f
		}
		return out
	}
	if _, v := verdict(a, shift(1.02), "lower", 0.05); v != "ok" {
		t.Errorf("+2%% within a 5%% bound: %s", v)
	}
	if w, v := verdict(a, shift(1.10), "lower", 0.05); v != "regressed" || !near(w, 0.10) {
		t.Errorf("+10%% over a 5%% bound: %s (%v)", v, w)
	}
	if _, v := verdict(a, shift(0.90), "higher", 0.05); v != "regressed" {
		t.Errorf("-10%% on a higher-is-better metric: %s", v)
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if _, v := verdict(noisy, shift(1.02), "lower", 0.05); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
	if _, v := verdict(noisy, shift(0.5), "lower", 0.05); v != "ok" {
		t.Errorf("every run of B better than every run of A: %s", v)
	}
}

// The names and counts BENCHMARK.json must keep, and the harness's own
// constants against the file.
func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile("../" + benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("file has %d workloads, harness %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		check(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in the file, %q in the harness", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, sim := simWorkloadByName(w.Name); !sim && !isServe(w.Name) {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	if len(bf.EndToEnd) != len(endToEndNames) {
		t.Fatalf("file has %d end-to-end metrics, harness %d", len(bf.EndToEnd), len(endToEndNames))
	}
	for i, d := range bf.EndToEnd {
		if d.Name != endToEndNames[i] {
			t.Errorf("end-to-end metric %d is %q in the file, %q in the harness", i, d.Name, endToEndNames[i])
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths %v", bf.Paths)
	}
}

func TestProject(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "count"}}
	m := metricSet{}
	m.set("a", "ms", 1.5)
	m.set("extra", "s", 9)
	got, err := m.project(defs, false)
	if err != nil || len(got) != 2 || got["a"].Value != 1.5 || got["b"] != (metricValue{Unit: "count"}) {
		t.Errorf("project = %v, %v", got, err)
	}
	if _, err := m.project(defs, true); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
	m.set("b", "ms", 2)
	if _, err := m.project(defs, false); err == nil {
		t.Error("a unit that differs from the declaration must be an error")
	}
}

// The hand-built pcn.Config behind the traced decomposition, and member
// seeding: the decomposed small cell must equal Spec.RunScheme's, and two
// members of a workload must be different inputs.
func TestDecompositionMatchesRunScheme(t *testing.T) {
	m := metricSet{}
	if _, err := probeCell(scenario.SmallSpec(), newTracer(), m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pcn.setup_ms", "pcn.plan_ms", "pcn.execute_ms", "placement.hubs_placed", "graph.edw_us.p50", "sim.event_ns"} {
		if m[name].Value <= 0 {
			t.Errorf("probe left %s at %v", name, m[name].Value)
		}
	}
	w, _ := simWorkloadByName(wMainnet)
	if a, b := memberOffset(w, 1, w.members-1), memberOffset(w, 2, 0); a+1 != b {
		t.Errorf("members of seeds 1 and 2 overlap or leave a gap: %d then %d", a, b)
	}
}
