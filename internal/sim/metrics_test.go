package sim

import "testing"

// TestMeanExactUnderBounding: Mean stays exact over a long stream: the sum
// accumulates in observation order.
func TestMeanExactUnderBounding(t *testing.T) {
	m := NewMetrics()
	h := m.SampleHandle("d")
	n := 3 * 4096
	sum := 0.0
	for i := 0; i < n; i++ {
		v := float64(i%97) * 0.25
		m.ObserveHandle(h, v)
		sum += v
	}
	if got, want := m.Mean("d"), sum/float64(n); got != want {
		t.Fatalf("mean = %v, want exactly %v", got, want)
	}
	if got := m.samples[h].count; got != int64(n) {
		t.Fatalf("count = %d, want %d", got, n)
	}
}

// TestHandleStringEquivalence: the interned-handle API and the string API
// address the same counters and histograms.
func TestHandleStringEquivalence(t *testing.T) {
	m := NewMetrics()
	c := m.CounterHandle("sent")
	m.AddHandle(c, 2)
	m.Add("sent", 3)
	if m.Counter("sent") != 5 {
		t.Fatalf("counter = %v", m.Counter("sent"))
	}
	s := m.SampleHandle("delay")
	m.ObserveHandle(s, 1)
	m.ObserveHandle(m.SampleHandle("delay"), 3)
	if m.Mean("delay") != 2 {
		t.Fatalf("mean=%v", m.Mean("delay"))
	}
	// Handles are stable: re-interning returns the same index.
	if m.CounterHandle("sent") != c || m.SampleHandle("delay") != s {
		t.Fatal("handle not stable across interning")
	}
}
