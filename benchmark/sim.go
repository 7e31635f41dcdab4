package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	splicer "github.com/splicer-pcn/splicer"
	"github.com/splicer-pcn/splicer/internal/channel"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/routing"
	"github.com/splicer-pcn/splicer/internal/scenario"
	"github.com/splicer-pcn/splicer/internal/sim"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// A simulation workload runs its op over an ensemble of seeded inputs: member
// j of run seed n is the workload's base spec with its seed moved by
// (n-1)*members+j. One spec seed changes an op's wall-clock by about 10 %
// (another graph, another Poisson count), so a run reports the mean over its
// members; that keeps the spread across run seeds near a third of what a
// single input would give, without making every seed time the same input.

// item is one checked output of an op: a pcn.Result or a panel CSV, by digest.
type item struct{ Key, Sum string }

type opOut struct {
	items []item
	// work is the op's simulated work: payments generated (fig8d_large,
	// mainnet_cell) or sweep cells and placement solves run (panel_mix).
	work int
}

// traceCtx carries the tracer into an op. With a nil tracer the op takes the
// program's own entry points (Spec.RunScheme, Entry.Run) and nothing else.
type traceCtx struct {
	tr      *tracer
	parent  int
	op      int
	workers int // sweep workers for panel_mix; 0 means 2
}

type simWorkload struct {
	name    string
	members int
	run     func(off uint64, tc traceCtx) (opOut, error)
}

func simWorkloadByName(name string) (simWorkload, bool) {
	switch name {
	case wFig8d:
		return simWorkload{name, 10, runFig8d}, true
	case wPanels:
		return simWorkload{name, 5, runPanels}, true
	case wMainnet:
		return simWorkload{name, 10, runMainnet}, true
	}
	return simWorkload{}, false
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

// resultItem digests a pcn.Result. %+v prints maps in key order and NaN as
// text, so equal results give equal strings (Result holds NaN, so == won't do).
func resultItem(key string, r pcn.Result) item {
	return item{key, digest(fmt.Sprintf("%+v", r))}
}

// fig8dSpec is the geometry of the tracked figures/fig8d_throughput_large
// entry: the paper's large scenario at tau = 400 ms, 150 tx/s for 2 s.
func fig8dSpec(off uint64) scenario.Spec {
	s := scenario.LargeSpec()
	s.Seed += off
	s.Routing.UpdateTauMs = 400
	s.Workload.Rate = 150
	s.Workload.Duration = 2
	return s
}

func mainnetSpec(off uint64) scenario.Spec {
	s := scenario.MainnetSpec()
	s.Seed += off
	s.Workload.Rate = 60
	return s
}

func runFig8d(off uint64, tc traceCtx) (opOut, error) {
	return runSchemes(fig8dSpec(off), scenario.DefaultSchemes(), off, tc)
}

func runMainnet(off uint64, tc traceCtx) (opOut, error) {
	return runSchemes(mainnetSpec(off), []string{"Splicer"}, off, tc)
}

// runSchemes runs the spec's cell once per scheme, serially.
func runSchemes(spec scenario.Spec, schemes []string, off uint64, tc traceCtx) (opOut, error) {
	var out opOut
	for _, name := range schemes {
		scheme, err := pcn.SchemeByName(name)
		if err != nil {
			return out, err
		}
		id := tc.tr.begin("pcn.cell."+name, tc.parent, tc.op)
		res, err := runCell(spec, scheme, tc.tr, id, tc.op)
		tc.tr.end(id)
		if err != nil {
			return out, fmt.Errorf("%s seed %d %s: %w", spec.Name, spec.Seed, name, err)
		}
		out.items = append(out.items, resultItem(fmt.Sprintf("%d/%s", off, name), res))
		out.work += res.Generated
	}
	return out, nil
}

func runCell(spec scenario.Spec, scheme pcn.Scheme, tr *tracer, parent, op int) (pcn.Result, error) {
	if tr == nil {
		return spec.RunScheme(scheme)
	}
	res, _, err := runDecomposed(spec, scheme, tr, parent, op)
	return res, err
}

// handConfig mirrors scenario's unexported Spec.config for the static specs
// the traced decomposition covers. The traced run checks the mirror: a
// decomposed cell must return the pcn.Result Spec.RunScheme returns.
func handConfig(s scenario.Spec, scheme pcn.Scheme) (pcn.Config, error) {
	if s.Dynamics != nil || s.Attack != nil || s.Routing.Retry != nil {
		return pcn.Config{}, fmt.Errorf("decomposition covers static specs only, not %q", s.Name)
	}
	cfg := pcn.NewConfig(scheme)
	r := s.Routing
	if r.HubCandidates > 0 {
		cfg.NumHubCandidates = r.HubCandidates
	}
	if r.NumPaths > 0 {
		cfg.NumPaths = r.NumPaths
	}
	if r.PathType != "" {
		pt, err := routing.PathTypeByName(r.PathType)
		if err != nil {
			return pcn.Config{}, err
		}
		cfg.PathType = pt
	}
	if r.Scheduler != "" {
		sched, err := channel.SchedulerByName(r.Scheduler)
		if err != nil {
			return pcn.Config{}, err
		}
		cfg.Scheduler = sched
	}
	if r.UpdateTauMs > 0 {
		cfg.UpdateTau = r.UpdateTauMs / 1000
	}
	if r.PlacementOmega > 0 {
		cfg.PlacementOmega = r.PlacementOmega
	}
	switch r.Override {
	case "", "exact":
	case "hub-labels":
		cfg.RoutingOverride = pcn.RoutingHubLabels
	default:
		return pcn.Config{}, fmt.Errorf("unknown routing override %q", r.Override)
	}
	if r.MaxInFlightTUs > 0 {
		cfg.MaxInFlightTUs = r.MaxInFlightTUs
	}
	cfg.Parallelism = r.Parallelism
	return cfg, nil
}

// runDecomposed is Spec.RunScheme taken apart at its layer boundaries, with a
// span around each call. It also returns the network, for the probes.
func runDecomposed(spec scenario.Spec, scheme pcn.Scheme, tr *tracer, parent, op int) (pcn.Result, *pcn.Network, error) {
	id := tr.begin("scenario.build", parent, op)
	g, trace, err := spec.Build()
	tr.end(id)
	if err != nil {
		return pcn.Result{}, nil, err
	}
	if len(trace) == 0 {
		return pcn.Result{}, nil, fmt.Errorf("empty trace")
	}
	cfg, err := handConfig(spec, scheme)
	if err != nil {
		return pcn.Result{}, nil, err
	}
	id = tr.begin("pcn.setup", parent, op)
	net, err := pcn.NewNetwork(g, cfg)
	tr.end(id)
	if err != nil {
		return pcn.Result{}, nil, err
	}
	id = tr.begin("pcn.execute", parent, op)
	horizon := trace[len(trace)-1].Deadline + 1
	err = net.BeginRun(horizon)
	for i := 0; err == nil && i < len(trace); i++ {
		err = net.ScheduleArrival(trace[i])
	}
	var res pcn.Result
	if err == nil {
		res, err = net.Execute(horizon)
	}
	tr.end(id)
	if err != nil {
		return pcn.Result{}, nil, err
	}
	id = tr.begin("pcn.check", parent, op)
	err = net.CheckConservation()
	tr.end(id)
	return res, net, err
}

// panelNames are panel_mix's registry panels: the static figure path, the
// dynamics driver with online re-placement, two attack+retry panels, and the
// placement solvers at the large scale.
var panelNames = []string{"fig7c", "figchurn", "retry-jamming", "retry-hub-outage", "fig9d", "fig9f"}

// goldenPanels are the panels internal/scenario pins byte for byte.
var goldenPanels = map[string]bool{"fig7c": true, "figchurn": true, "retry-jamming": true, "retry-hub-outage": true}

const goldenDir = "internal/scenario/testdata/golden"

// panelCells counts the simulations (or placement solves) behind one panel.
func panelCells(e *scenario.Entry) int {
	switch e.Kind {
	case scenario.KindFigure:
		return len(e.Axis.Values) * len(e.Schemes)
	case scenario.KindChurn:
		return len(e.Axis.Values) * (len(e.Schemes) + 1) // + Splicer(online)
	case scenario.KindRetry:
		return len(e.Axis.Values) * len(e.Schemes) * 2 // retries off and on
	default:
		return len(e.Omegas)
	}
}

func runPanels(off uint64, tc traceCtx) (opOut, error) {
	workers := tc.workers
	if workers == 0 {
		workers = 2
	}
	var out opOut
	for _, name := range panelNames {
		reg, ok := scenario.Lookup(name)
		if !ok {
			return out, fmt.Errorf("registry entry %q missing", name)
		}
		e := *reg // the registry's entry is shared; move the seed on a copy
		e.Base.Seed += off
		id := tc.tr.begin("scenario.panel."+name, tc.parent, tc.op)
		table, err := e.Run(scenario.RunOptions{Workers: workers})
		tc.tr.end(id)
		if err != nil {
			return out, fmt.Errorf("panel %s seed %d: %w", name, e.Base.Seed, err)
		}
		csv := table.CSV()
		if off == 0 && goldenPanels[name] {
			want, err := os.ReadFile(filepath.Join(goldenDir, name+".csv"))
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "benchmark: golden fixture for %s not read (%v); byte-compare skipped\n", name, err)
			case !bytes.Equal(want, []byte(csv)):
				return out, fmt.Errorf("panel %s differs from %s/%s.csv", name, goldenDir, name)
			}
		}
		out.items = append(out.items, item{fmt.Sprintf("%d/%s", off, name), digest(csv)})
		out.work += panelCells(&e)
	}
	return out, nil
}

// expected holds the checked-in digests of one workload, keyed like item.Key.
type expected map[string]string

func expectedPath(workload string) string {
	return filepath.Join("benchmark", "expected", workload+".json")
}

func loadExpected(workload string) (expected, error) {
	data, err := os.ReadFile(expectedPath(workload))
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(workload), err)
	}
	return e, nil
}

// expectedSeeds are the run seeds whose outputs are checked in: the default
// seed and one seed held out from every tuning run.
var expectedSeeds = []uint64{1, 2}

// updateExpected recomputes and rewrites the checked-in digests.
func updateExpected() error {
	for _, name := range workloadNames {
		w, ok := simWorkloadByName(name)
		if !ok {
			continue
		}
		e := expected{}
		for _, seed := range expectedSeeds {
			for j := 0; j < w.members; j++ {
				out, err := w.run(memberOffset(w, seed, j), traceCtx{})
				if err != nil {
					return err
				}
				for _, it := range out.items {
					e[it.Key] = it.Sum
				}
			}
		}
		data, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(expectedPath(name)), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(expectedPath(name), append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d digests)\n", expectedPath(name), len(e))
	}
	return nil
}

func memberOffset(w simWorkload, seed uint64, j int) uint64 {
	return (seed-1)*uint64(w.members) + uint64(j)
}

// checker counts ops and their correctness misses.
type checker struct {
	attempted, failed int
	msgs              []string
}

func (c *checker) op(err error) {
	c.attempted++
	if err != nil {
		c.fail(err)
	}
}

func (c *checker) fail(err error) {
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, err.Error())
	}
}

// simChecks holds what an op's outputs are compared against: the checked-in
// digests where the key is present, and the first digest seen for a key
// otherwise, so any repetition of an op must reproduce it.
type simChecks struct {
	want expected
	seen map[string]string
}

func (s *simChecks) verify(out opOut) error {
	for _, it := range out.items {
		if want, ok := s.want[it.Key]; ok && want != it.Sum {
			return fmt.Errorf("%s: digest %s, checked-in %s", it.Key, it.Sum, want)
		}
		if prev, ok := s.seen[it.Key]; ok && prev != it.Sum {
			return fmt.Errorf("%s: digest %s, earlier repetition gave %s", it.Key, it.Sum, prev)
		}
		s.seen[it.Key] = it.Sum
	}
	return nil
}

// runSim is the child process of a simulation workload. It signals ready
// after one discarded warm-up op (member 0, which the first timed op
// repeats), then times ops member by member until the time is up and every
// member has run once.
func runSim(w simWorkload, seed uint64, seconds float64, traced, setupOnly bool, ready func()) (*childResult, error) {
	want, err := loadExpected(w.name)
	if err != nil {
		return nil, fmt.Errorf("checked-in digests: %w", err)
	}
	if seed > expectedSeeds[len(expectedSeeds)-1] {
		want = nil // keys of other seeds are not checked in
	}
	checks := &simChecks{want: want, seen: map[string]string{}}
	var chk checker

	warm, err := w.run(memberOffset(w, seed, 0), traceCtx{})
	if err == nil {
		err = checks.verify(warm)
	}
	chk.op(err)
	ready()
	res := &childResult{Metrics: metricSet{}}
	if setupOnly {
		return res, nil
	}
	if traced {
		err = simTraced(w, seed, seconds, checks, &chk, res)
	} else {
		simTimed(w, seed, seconds, checks, &chk, res)
	}
	res.finish(&chk)
	return res, err
}

func simTimed(w simWorkload, seed uint64, seconds float64, checks *simChecks, chk *checker, res *childResult) {
	perMember := make([][]float64, w.members)
	rssPerMember := make([][]float64, w.members)
	work, wall := 0, 0.0
	rss := startRSSSampler()
	defer rss.halt()
	ref, err := newHostRef()
	if err != nil {
		chk.fail(err)
		return
	}
	start := time.Now()
	for i := 0; i < w.members || time.Since(start).Seconds() < seconds; i++ {
		j := i % w.members
		ref.sample()
		rss.reset()
		t0 := time.Now()
		out, err := w.run(memberOffset(w, seed, j), traceCtx{})
		d := time.Since(t0).Seconds()
		rssPerMember[j] = append(rssPerMember[j], rss.peakMB())
		if err == nil {
			err = checks.verify(out)
		}
		chk.op(err)
		perMember[j] = append(perMember[j], d*1000)
		work += out.work
		wall += d
	}
	// One number per member (its median over repetitions), then the mean
	// and the upper quartile over members. Memory is the median over
	// members of the peak resident set during one op: a single input that
	// holds twice the memory of the rest should not set the figure.
	members, memberRSS := make([]float64, w.members), make([]float64, w.members)
	var all []float64
	for j, xs := range perMember {
		members[j], memberRSS[j] = median(xs), median(rssPerMember[j])
		all = append(all, xs...)
	}
	ref.sample()
	f := ref.factor()
	res.HostFactor = f
	res.Metrics.set(mOp, "ms", mean(members)*f)
	res.Metrics.set(mOpTail, "ms", percentile(members, 75)*f)
	res.Metrics.set(mWork, "1/s", float64(work)/wall/f)
	res.Metrics.set(mPeakRSS, "MB", median(memberRSS))
	res.Detail = map[string]any{
		"raw_op_ms": summarize(all), "raw_members_ms": members, "host_ref_ms": summarize(ref.samples),
		"members_rss_mb": memberRSS, "vm_hwm_mb": peakRSSMB(),
	}
}

// simTraced alternates an untraced op with its traced decomposition, checks
// that both give the same outputs, and then runs the per-layer probes.
func simTraced(w simWorkload, seed uint64, seconds float64, checks *simChecks, chk *checker, res *childResult) error {
	tr := newTracer()
	m := res.Metrics
	var plain, withTrace, allocMB, allocs []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds*0.6; i++ {
		off := memberOffset(w, seed, i%w.members)
		before := readMem()
		t0 := time.Now()
		out, err := w.run(off, traceCtx{})
		plain = append(plain, time.Since(t0).Seconds()*1000)
		after := readMem()
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		if err == nil {
			err = checks.verify(out)
		}
		chk.op(err)

		root := tr.begin("op", -1, i)
		tout, err := w.run(off, traceCtx{tr: tr, parent: root, op: i})
		withTrace = append(withTrace, tr.end(root).Seconds()*1000)
		if err == nil {
			err = checks.verify(tout) // same keys: the decomposition must agree
		}
		chk.op(err)
	}
	m.set("trace_overhead_pct", "%", (median(withTrace)-median(plain))/median(plain)*100)
	m.set("go.alloc_mb_per_op", "MB", median(allocMB))
	m.set("go.allocs_per_op", "count", median(allocs))

	for _, name := range scenario.DefaultSchemes() {
		if d := tr.durationsMs("pcn.cell." + name); len(d) > 0 {
			m.set("pcn.cell_ms."+name, "ms", median(d))
		}
	}
	for _, name := range panelNames {
		if d := tr.durationsMs("scenario.panel." + name); len(d) > 0 {
			m.set("scenario.panel_ms."+name, "ms", median(d))
		}
	}

	// The probes take the workload's own Splicer cell apart; panel_mix has
	// no single cell, so it probes the small scenario its panels sweep.
	spec := scenario.SmallSpec()
	switch w.name {
	case wFig8d:
		spec = fig8dSpec(memberOffset(w, seed, 0))
	case wMainnet:
		spec = mainnetSpec(memberOffset(w, seed, 0))
	case wPanels:
		spec.Seed += memberOffset(w, seed, 0)
		t0 := time.Now()
		out, err := w.run(memberOffset(w, seed, 0), traceCtx{workers: 1})
		serial := time.Since(t0).Seconds() * 1000
		if err == nil {
			err = checks.verify(out) // worker count must not move a byte
		}
		chk.op(err)
		m.set("sweep.speedup_w2", "ratio", serial/median(plain))
		m.set("sweep.cells", "count", float64(out.work))
	}
	cell, err := probeCell(spec, tr, m)
	if err != nil {
		chk.fail(fmt.Errorf("probe: %w", err))
	}
	if total := cell.RouteCacheHits + cell.RouteCacheMisses; total > 0 {
		m.set("pcn.route_cache_hit_ratio", "ratio", float64(cell.RouteCacheHits)/float64(total))
	}
	m.set("pcn.route_cache_misses", "count", float64(cell.RouteCacheMisses))
	m.set("pcn.label_served", "count", float64(cell.LabelServed))
	m.set("pcn.label_fallbacks", "count", float64(cell.LabelFallbacks))
	m.set("pcn.label_builds", "count", float64(cell.LabelBuilds))
	setGoMetrics(m)
	return tr.write(tracePath(w.name))
}

// probeCell measures the layers under one Splicer cell of spec from outside:
// the decomposed cell itself (under a pcn.cell.Splicer span, op -1) and then
// each layer's exported entry point on the same inputs.
func probeCell(spec scenario.Spec, tr *tracer, m metricSet) (pcn.Result, error) {
	const probeOp = -1
	cell := tr.begin("probe.cell.Splicer", -1, probeOp)
	res, net, err := runDecomposed(spec, pcn.SchemeSplicer, tr, cell, probeOp)
	tr.end(cell)
	if err != nil {
		return res, err
	}
	want, err := spec.RunScheme(pcn.SchemeSplicer)
	if err != nil {
		return res, err
	}
	if a, b := resultItem("", res), resultItem("", want); a != b {
		return res, fmt.Errorf("decomposed %s cell differs from Spec.RunScheme", spec.Name)
	}
	spans := tr.childDurationsMs(cell)
	for name, metric := range map[string]string{
		"scenario.build": "scenario.build_ms", "pcn.setup": "pcn.setup_ms",
		"pcn.execute": "pcn.execute_ms", "pcn.check": "pcn.check_ms",
	} {
		m.set(metric, "ms", spans[name])
	}

	g, trace, err := spec.Build()
	if err != nil {
		return res, err
	}
	cfg, err := handConfig(spec, pcn.SchemeSplicer)
	if err != nil {
		return res, err
	}

	// topology.ReadSnapshot on the cell's own graph, serialized in memory.
	var buf bytes.Buffer
	if err := topology.WriteSnapshot(&buf, g); err != nil {
		return res, err
	}
	id := tr.begin("topology.read_snapshot", -1, probeOp)
	_, err = topology.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	m.set("topology.read_snapshot_ms", "ms", ms(tr.end(id)))
	if err != nil {
		return res, err
	}

	// workload.Generate with the spec's workload block over every node.
	clients := make([]graph.NodeID, g.NumNodes())
	for i := range clients {
		clients[i] = graph.NodeID(i)
	}
	wl := spec.Workload
	id = tr.begin("workload.generate", -1, probeOp)
	_, err = workload.Generate(rng.New(spec.Seed).Split(3), workload.Config{
		Clients: clients, Rate: wl.Rate, Duration: wl.Duration, Timeout: 3,
		ZipfSkew: wl.ZipfSkew, ValueScale: 1, CirculationFraction: wl.CirculationFraction,
	})
	m.set("workload.generate_ms", "ms", ms(tr.end(id)))
	if err != nil {
		return res, err
	}

	// The placement solve pcn.NewNetwork runs inside Setup, on its inputs:
	// top-degree candidates, every other node a client.
	numCand := cfg.NumHubCandidates
	if numCand > g.NumNodes()/2 {
		numCand = g.NumNodes() / 2
	}
	cands := topology.TopDegreeNodes(g, numCand)
	isCand := map[graph.NodeID]bool{}
	for _, c := range cands {
		isCand[c] = true
	}
	var placeClients []graph.NodeID
	for _, c := range clients {
		if !isCand[c] {
			placeClients = append(placeClients, c)
		}
	}
	id = tr.begin("placement.solve", -1, probeOp)
	plan, err := splicer.PlaceHubs(g, placeClients, cands, cfg.PlacementOmega)
	m.set("placement.solve_ms", "ms", ms(tr.end(id)))
	if err != nil {
		return res, err
	}
	m.set("placement.hubs_placed", "count", float64(len(plan.Hubs)))

	// Route planning alone: the policy's Plan over the trace on a cold twin
	// network (empty route cache, no labels built), without the event loop.
	twin, err := pcn.NewNetwork(g, cfg)
	if err != nil {
		return res, err
	}
	id = tr.begin("pcn.plan", -1, probeOp)
	for _, tx := range trace {
		if _, _, err := twin.Policy().Plan(twin, tx); err != nil {
			tr.end(id)
			return res, fmt.Errorf("plan tx %d: %w", tx.ID, err)
		}
	}
	planMs := ms(tr.end(id))
	m.set("pcn.plan_ms", "ms", planMs)
	m.set("pcn.event_loop_ms", "ms", spans["pcn.execute"]-planMs)

	// The three path searches on the cell's reshaped graph over the trace's
	// pairs, on a finder of their own.
	rg := net.Graph()
	pf := graph.NewPathFinder(rg)
	var edw, ksp, usp []float64
	probeStart := time.Now()
	for i, tx := range trace {
		// On the mainnet graph one k-shortest search takes 40 ms: stop at
		// 120 pairs or two seconds, but never short of 20 pairs.
		if i >= 120 || (i >= 20 && time.Since(probeStart) > 2*time.Second) {
			break
		}
		t0 := time.Now()
		pf.EdgeDisjointWidestPaths(tx.Sender, tx.Recipient, cfg.NumPaths)
		t1 := time.Now()
		pf.KShortestPaths(tx.Sender, tx.Recipient, cfg.NumPaths, graph.UnitWeight)
		t2 := time.Now()
		pf.UnitShortestPath(tx.Sender, tx.Recipient)
		t3 := time.Now()
		edw = append(edw, us(t1.Sub(t0)))
		ksp = append(ksp, us(t2.Sub(t1)))
		usp = append(usp, us(t3.Sub(t2)))
	}
	m.setPair("graph.edw_us", "us", edw)
	m.setPair("graph.ksp_us", "us", ksp)
	m.setPair("graph.unit_sp_us", "us", usp)

	// sim.Engine alone: schedule and run no-op events at scattered times.
	const events = 200000
	eng := sim.NewEngine()
	src := rng.New(spec.Seed).Split(99)
	id = tr.begin("sim.engine", -1, probeOp)
	for i := 0; i < events; i++ {
		if _, err := eng.Schedule(src.Float64()*100, 0, func() {}); err != nil {
			tr.end(id)
			return res, err
		}
	}
	eng.Run(101)
	m.set("sim.event_ns", "ns", float64(tr.end(id).Nanoseconds())/events)
	return res, nil
}

// childDurationsMs maps the name of each direct child of span id to its
// duration (summed when a name repeats).
func (t *tracer) childDurationsMs(id int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.Parent == id && s.End >= s.Start {
			out[s.Name] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func tracePath(workload string) string {
	return filepath.Join("benchmark", "out", "trace-"+workload+".json")
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
