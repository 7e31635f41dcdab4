package main

import (
	"strconv"
	"sync"
	"syscall"
	"time"
)

// request is one /route query of the seeded stream (k = 1).
type request struct{ Src, Dst int }

func (r request) url() string {
	return "/route?src=" + strconv.Itoa(r.Src) + "&dst=" + strconv.Itoa(r.Dst) + "&k=1"
}

// doFunc sends one request on connection conn and returns the HTTP status
// and body. The load generator is written against it so tests can stand in
// a stalling server.
type doFunc func(conn int, r request) (status int, body []byte, err error)

// sample is one request's timeline. Due is when the schedule said to send
// it; latency runs from Due, so time a stalled server makes later requests
// wait in the generator counts against the server, not for it.
type sample struct {
	Idx    int
	Due    time.Time
	Handed time.Time // when the scheduler released it; Handed-Due is generator lateness
	Sent   time.Time // when a connection picked it up
	Done   time.Time
	Status int
	Body   []byte
	Err    error
}

func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }

// openLoop offers reqs at a fixed rate for dur: one scheduler goroutine
// releases each request at its due time whatever the server is doing, and
// conns connection goroutines (each with one request in flight) send them in
// order. It returns when every released request has been answered.
func openLoop(do doFunc, conns int, reqs []request, rate float64, dur time.Duration) []sample {
	n := int(rate * dur.Seconds())
	if n > len(reqs) {
		n = len(reqs)
	}
	samples := make([]sample, n)
	// Sized to the number of sends, so the scheduler never blocks on a slow
	// server: the backlog waits here, which is what open loop means.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.Sent = time.Now()
				s.Status, s.Body, s.Err = do(conn, reqs[i])
				s.Done = time.Now()
			}
		}(c)
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		samples[i].Idx, samples[i].Due, samples[i].Handed = i, due, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// waitUntil returns at t, to within some tens of microseconds. time.Sleep
// wakes a Go program through epoll with millisecond resolution, which at
// 500 req/s would put most of a millisecond of the generator's own lateness
// into every latency. nanosleep(2) on the scheduler's own thread overshoots
// by about 0.1 ms, so it covers all but the last stretch, which is spun.
func waitUntil(t time.Time) {
	const spin = 200 * time.Microsecond
	if wait := time.Until(t) - spin; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // woken early by a signal: the spin covers the rest
	}
	for time.Now().Before(t) {
	}
}

// closedLoop keeps conns connections busy for dur, each sending its next
// request when the previous one is answered. It returns when each request was
// answered (as an offset from the start, unordered), the samples worth a look
// (a kept body, an error or a status other than 200) and the elapsed time.
// Connection c walks reqs from c in strides of conns.
func closedLoop(do doFunc, conns int, reqs []request, dur time.Duration) (doneAt []time.Duration, notable []sample, elapsed time.Duration) {
	perDone := make([][]time.Duration, conns)
	perNotable := make([][]sample, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := conn; i < len(reqs) && time.Now().Before(deadline); i += conns {
				s := sample{Idx: i, Due: time.Now()}
				s.Status, s.Body, s.Err = do(conn, reqs[i])
				s.Done = time.Now()
				perDone[conn] = append(perDone[conn], s.Done.Sub(start))
				if s.Body != nil || s.Err != nil || s.Status != 200 {
					perNotable[conn] = append(perNotable[conn], s)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for c := range perDone {
		doneAt = append(doneAt, perDone[c]...)
		notable = append(notable, perNotable[c]...)
	}
	return doneAt, notable, elapsed
}

// A serve run's figures are medians over one-second windows, not pooled over
// the run: the sandbox stalls a process for tens of milliseconds now and
// then, which at 500 req/s is enough to move a pooled percentile, and a stall
// lands in one window.
const window = time.Second

// windowRates counts completions per full window and returns them per second.
func windowRates(doneAt []time.Duration, elapsed time.Duration) []float64 {
	full := int(elapsed / window)
	if full == 0 {
		return []float64{float64(len(doneAt)) / elapsed.Seconds()}
	}
	counts := make([]float64, full)
	for _, d := range doneAt {
		if w := int(d / window); w < full {
			counts[w] += 1 / window.Seconds()
		}
	}
	return counts
}

// windowPercentiles groups open-loop samples by the window their due time
// fell in and returns each full window's p-th latency percentile in ms.
func windowPercentiles(samples []sample, p float64) []float64 {
	if len(samples) == 0 {
		return nil
	}
	start := samples[0].Due
	full := int(samples[len(samples)-1].Due.Sub(start)/window) + 1
	buckets := make([][]float64, full)
	for _, s := range samples {
		w := int(s.Due.Sub(start) / window)
		buckets[w] = append(buckets[w], ms(s.latency()))
	}
	// The last window is full only when the phase length is a whole number
	// of windows; a short one is dropped unless it is all there is.
	if full > 1 && len(buckets[full-1]) < len(buckets[0]) {
		buckets = buckets[:full-1]
	}
	out := make([]float64, len(buckets))
	for i, b := range buckets {
		out[i] = percentile(b, p)
	}
	return out
}

// loadStats reduces an open-loop phase.
type loadStats struct {
	latMs       []float64 // per request, from due time
	lateP99Ms   float64   // generator lateness
	achievedRPS float64   // completions over the offered window, or up to the last answer if later
	lastLagMs   float64   // latency of the last request: a growing backlog shows here
}

func reduceOpenLoop(samples []sample) loadStats {
	var st loadStats
	if len(samples) == 0 {
		return st
	}
	late := make([]float64, len(samples))
	end := samples[0].Done
	for i, s := range samples {
		st.latMs = append(st.latMs, ms(s.latency()))
		late[i] = ms(s.Handed.Sub(s.Due))
		if s.Done.After(end) {
			end = s.Done
		}
	}
	st.lateP99Ms = percentile(late, 99)
	// The offered window runs one interval past the last due time; answers
	// that arrive after it stretch the span, so a backlog lowers the rate.
	first, last := samples[0].Due, samples[len(samples)-1].Due
	span := last.Sub(first)
	if n := len(samples); n > 1 {
		span += span / time.Duration(n-1)
	}
	if drained := end.Sub(first); drained > span {
		span = drained
	}
	st.achievedRPS = float64(len(samples)) / span.Seconds()
	st.lastLagMs = ms(samples[len(samples)-1].latency())
	return st
}
