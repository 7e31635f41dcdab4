package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// Every workload runs in a child process of its own (this binary, re-run with
// -child), so that its peak RSS is its own and no heap or GC state passes
// from one workload, or one set-up, to the next. The child writes readyLine
// when set-up is over and the first timed op is about to start, and its
// result as one JSON line when it is done; both go to its standard output.

const readyLine = "READY"

// childResult is what a child reports to the process that started it.
type childResult struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Valid is false when the open-loop generator itself ran late or short
	// (serve workloads): the latencies then describe the generator, and the
	// run should be repeated rather than compared.
	Valid *bool `json:"valid,omitempty"`
	// HostFactor is the run's host-speed scale (hostref.go): its times have
	// been multiplied by it, its rate divided.
	HostFactor float64        `json:"host_factor,omitempty"`
	Failures   []string       `json:"failures,omitempty"`
	Detail     map[string]any `json:"detail,omitempty"`
}

func (r *childResult) finish(c *checker) {
	r.Attempted, r.Failed = c.attempted, c.failed
	r.Correct = c.failed == 0
	r.Failures = c.msgs
	if _, ok := r.Metrics[mPeakRSS]; !ok {
		r.Metrics.set(mPeakRSS, "MB", peakRSSMB())
	}
}

// childMain runs one workload, or only its set-up, in this process.
func childMain(mode, workload string, seed uint64, seconds float64, traced bool) error {
	out := bufio.NewWriter(os.Stdout)
	ready := func() {
		fmt.Fprintln(out, readyLine)
		out.Flush()
	}
	setupOnly := mode == "setup"
	var res *childResult
	var err error
	if w, ok := simWorkloadByName(workload); ok {
		res, err = runSim(w, seed, seconds, traced, setupOnly, ready)
	} else if isServe(workload) {
		res, err = runServe(workload, seed, seconds, traced, setupOnly, ready)
	} else {
		err = fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return err
	}
	if traced && !setupOnly {
		repeatable, err := baRepeatable()
		if err != nil {
			return err
		}
		res.Metrics.set("topology.ba_repeatable", "bool", repeatable)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return out.Flush()
}

// spawn starts a child and returns the seconds from process start to its
// ready line and, unless the child was set-up only, its result.
func spawn(mode, workload string, seed uint64, seconds float64, traced bool) (setup float64, res *childResult, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var last string
	for sc.Scan() {
		if sc.Text() == readyLine {
			setup = time.Since(start).Seconds()
			continue
		}
		last = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("%s child of %s: %w", mode, workload, err)
	}
	if setup == 0 {
		return 0, nil, fmt.Errorf("%s child of %s never signalled ready", mode, workload)
	}
	res = new(childResult)
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return 0, nil, fmt.Errorf("%s child of %s: result line: %w", mode, workload, err)
	}
	return setup, res, nil
}

// baRepeatable is a report-only probe: it builds topology.BarabasiAlbert
// twice from one seed and returns 1 if the two edge lists match, 0 if not.
// The generator wires each new node by ranging over a Go map, so today the
// graphs differ; no workload uses it, and the probe never fails a run. When
// it reads 1 the generator has been fixed and a 100k-node workload can be
// added (see README.md).
func baRepeatable() (float64, error) {
	var lists [2]string
	for i := range lists {
		src := rng.New(11)
		sizes := workload.NewChannelSizeDist(src.Split(1), 1)
		g, err := topology.BarabasiAlbert(src.Split(2), 2000, 3, sizes.CapacityFunc())
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := topology.WriteSnapshot(&buf, g); err != nil {
			return 0, err
		}
		lists[i] = buf.String()
	}
	if lists[0] == lists[1] {
		return 1, nil
	}
	return 0, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssSampler follows the process's resident set, so that a peak can be read
// per op: VmHWM only ever rises, and one memory-heavy input early in a run
// would hide every later one.
type rssSampler struct {
	mu   sync.Mutex
	peak float64
	stop chan struct{}
	done sync.WaitGroup
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	rss := currentRSSMB()
	s.mu.Lock()
	if rss > s.peak {
		s.peak = rss
	}
	s.mu.Unlock()
}

// reset returns the heap's free pages to the OS and starts a new peak.
func (s *rssSampler) reset() {
	debug.FreeOSMemory()
	s.mu.Lock()
	s.peak = 0
	s.mu.Unlock()
	s.observe()
}

func (s *rssSampler) peakMB() float64 {
	s.observe()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

func (s *rssSampler) halt() {
	close(s.stop)
	s.done.Wait()
}

// currentRSSMB reads the resident set from /proc/self/statm (pages).
func currentRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// setGoMetrics records the child's GC activity since it started.
func setGoMetrics(m metricSet) {
	ms := readMem()
	m.set("go.gc_cycles", "count", float64(ms.NumGC))
	m.set("go.gc_pause_ms", "ms", float64(ms.PauseTotalNs)/1e6)
}
