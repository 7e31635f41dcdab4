package sweep

import (
	"math"

	"github.com/splicer-pcn/splicer/internal/pcn"
)

// Stats summarizes one metric across the seeds of a group. NaN samples
// (e.g. MeanQueueDelay under a scheme without queues, MeanDelay with zero
// completions) are excluded; N counts the samples folded in.
type Stats struct {
	N    int
	Mean float64
	// Std is the sample (n−1) standard deviation; 0 when N < 2.
	Std float64
	// CI95 is the half-width of the normal-approximation 95% confidence
	// interval, 1.96·Std/√N; 0 when N < 2.
	CI95 float64
}

// newStats folds samples in slice order so the result is bit-stable for a
// fixed input order.
func newStats(samples []float64) Stats {
	var s Stats
	sum := 0.0
	for _, v := range samples {
		if math.IsNaN(v) {
			continue
		}
		s.N++
		sum += v
	}
	if s.N == 0 {
		s.Mean = math.NaN()
		return s
	}
	s.Mean = sum / float64(s.N)
	if s.N < 2 {
		return s
	}
	ss := 0.0
	for _, v := range samples {
		if math.IsNaN(v) {
			continue
		}
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N-1))
	s.CI95 = 1.96 * s.Std / math.Sqrt(float64(s.N))
	return s
}

// Summary summarizes one group of cells: the seeds of one panel point.
type Summary struct {
	// Seeds is the number of successful cells summarized; Failed counts
	// cells whose run errored (excluded from the stats).
	Seeds  int
	Failed int

	TSR            Stats
	Throughput     Stats // normalized throughput
	MeanDelay      Stats
	MeanQueueDelay Stats
	MeanImbalance  Stats

	// Route-computation effectiveness (precomputation/caching telemetry, not
	// paper metrics): the RouteCache hit rate in [0,1] (NaN when no route was
	// ever requested) and the per-run label-tier activity.
	CacheHitRate Stats
	LabelServed  Stats
	LabelRepairs Stats

	// FailureReasons breaks the group's failures down by abort reason: mean
	// counts per seed keyed by reason (e.g. "no_funds", "deadline",
	// "no_flow"). A seed that never recorded a reason contributes a zero
	// sample for it, so means stay comparable across groups. Nil when no cell
	// in the group recorded any attributed failure.
	FailureReasons map[string]Stats
}

// Summarize folds one group's results — a panel point's seeds, laid out
// contiguously by the caller — into its summary. Samples fold in slice
// order, so the summary is the same for any worker count.
func Summarize(group []CellResult) Summary {
	var s Summary
	stats := [...]*Stats{&s.TSR, &s.Throughput, &s.MeanDelay, &s.MeanQueueDelay,
		&s.MeanImbalance, &s.CacheHitRate, &s.LabelServed, &s.LabelRepairs}
	var samples [len(stats)][]float64
	var ok []pcn.Result
	for _, r := range group {
		if r.Err != nil {
			s.Failed++
			continue
		}
		ok = append(ok, r.Result)
		for i, v := range samplesOf(r.Result) {
			samples[i] = append(samples[i], v)
		}
	}
	s.Seeds = len(ok)
	for i, st := range stats {
		*st = newStats(samples[i])
	}
	for _, r := range ok {
		for reason := range r.FailureReasons {
			if _, done := s.FailureReasons[reason]; done {
				continue
			}
			counts := make([]float64, len(ok))
			for j, o := range ok {
				counts[j] = float64(o.FailureReasons[reason])
			}
			if s.FailureReasons == nil {
				s.FailureReasons = map[string]Stats{}
			}
			s.FailureReasons[reason] = newStats(counts)
		}
	}
	return s
}

// samplesOf lists a result's summarized values in Summarize's stats order.
func samplesOf(r pcn.Result) [8]float64 {
	hitRate := math.NaN()
	if lookups := r.RouteCacheHits + r.RouteCacheMisses; lookups > 0 {
		hitRate = float64(r.RouteCacheHits) / float64(lookups)
	}
	return [8]float64{r.TSR, r.NormalizedThroughput, r.MeanDelay, r.MeanQueueDelay,
		r.MeanImbalance, hitRate, float64(r.LabelServed), float64(r.LabelRepairs)}
}
