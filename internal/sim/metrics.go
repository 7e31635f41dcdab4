package sim

import (
	"math"
	"sort"
)

// CounterHandle is an interned counter: Add via handle is an array index
// instead of a string hash, which is what the per-hop payment path wants.
type CounterHandle int32

// SampleHandle is an interned histogram, the ObserveHandle counterpart of
// CounterHandle.
type SampleHandle int32

type counter struct {
	name  string
	value float64
}

// sampleStore keeps what Mean reads: a histogram is streamed, never stored.
type sampleStore struct {
	name  string
	count int64
	sum   float64 // running sum in observation order; Mean = sum/count
}

// Metrics collects counters and histograms for an experiment run. The zero
// value is NOT ready to use; construct with NewMetrics.
type Metrics struct {
	counterIdx map[string]CounterHandle
	counters   []counter
	sampleIdx  map[string]SampleHandle
	samples    []sampleStore
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counterIdx: map[string]CounterHandle{},
		sampleIdx:  map[string]SampleHandle{},
	}
}

// CounterHandle interns a counter name, creating the counter (at value 0)
// if needed. Hot paths resolve their handles once and use AddHandle.
func (m *Metrics) CounterHandle(name string) CounterHandle {
	if h, ok := m.counterIdx[name]; ok {
		return h
	}
	h := CounterHandle(len(m.counters))
	m.counters = append(m.counters, counter{name: name})
	m.counterIdx[name] = h
	return h
}

// SampleHandle interns a histogram name, creating the store if needed.
func (m *Metrics) SampleHandle(name string) SampleHandle {
	if h, ok := m.sampleIdx[name]; ok {
		return h
	}
	h := SampleHandle(len(m.samples))
	m.samples = append(m.samples, sampleStore{name: name})
	m.sampleIdx[name] = h
	return h
}

// AddHandle increments an interned counter by v.
func (m *Metrics) AddHandle(h CounterHandle, v float64) { m.counters[h].value += v }

// ObserveHandle records one sample of an interned histogram.
func (m *Metrics) ObserveHandle(h SampleHandle, v float64) {
	s := &m.samples[h]
	s.count++
	s.sum += v
}

// Add increments counter name by v.
func (m *Metrics) Add(name string, v float64) { m.AddHandle(m.CounterHandle(name), v) }

// Counter returns the current value of a counter (0 when absent).
func (m *Metrics) Counter(name string) float64 {
	if h, ok := m.counterIdx[name]; ok {
		return m.counters[h].value
	}
	return 0
}

// Mean returns the mean of histogram name, or NaN when empty. The sum
// accumulates in observation order, so it is exact and reproducible.
func (m *Metrics) Mean(name string) float64 {
	h, ok := m.sampleIdx[name]
	if !ok {
		return math.NaN()
	}
	s := &m.samples[h]
	if s.count == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.count)
}

// CounterNames returns the sorted counter names (for reporting). Interned
// but never-incremented counters are included at value 0.
func (m *Metrics) CounterNames() []string {
	names := make([]string, 0, len(m.counters))
	for i := range m.counters {
		names = append(names, m.counters[i].name)
	}
	sort.Strings(names)
	return names
}
