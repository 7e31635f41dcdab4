// Package workload synthesizes the evaluation workloads of the Splicer
// paper: heavy-tailed channel sizes matching the Lightning Network dataset
// statistics (min 10, mean 403, median 152 tokens), heavy-tailed transaction
// values mimicking the credit-card dataset Spider uses, Zipf-skewed
// sender/recipient selection from a processed LN trace, and an explicit
// circulation component guaranteed to induce the local deadlocks of §II-B.
package workload

import (
	"fmt"
	"math"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
)

// LN channel-size dataset statistics quoted in §V-A.
const (
	LNChannelMin    = 10.0
	LNChannelMean   = 403.0
	LNChannelMedian = 152.0
)

// ChannelSizeDist samples channel sizes from a shifted log-normal calibrated
// so that the minimum, mean and median match the Lightning Network dataset
// statistics from the paper. Substitution note (see DESIGN.md): the paper
// only uses the dataset through these summary statistics plus the
// heavy-tailed shape, which a log-normal reproduces.
type ChannelSizeDist struct {
	src       *rng.Source
	mu, sigma float64
	min       float64
	scale     float64
}

// NewChannelSizeDist builds the LN-calibrated sampler. scale multiplies all
// sizes; the figure-7a/8a sweeps vary it to study the influence of channel
// size.
func NewChannelSizeDist(src *rng.Source, scale float64) *ChannelSizeDist {
	if scale <= 0 {
		panic("workload: channel size scale must be positive")
	}
	// Shifted log-normal X = min + Y, Y ~ LogNormal(mu, sigma).
	// Median: min + exp(mu) = 152            => mu = ln(142)
	// Mean:   min + exp(mu + sigma^2/2) = 403 => sigma = sqrt(2 ln(393/142))
	mu := math.Log(LNChannelMedian - LNChannelMin)
	sigma := math.Sqrt(2 * math.Log((LNChannelMean-LNChannelMin)/(LNChannelMedian-LNChannelMin)))
	return &ChannelSizeDist{src: src, mu: mu, sigma: sigma, min: LNChannelMin, scale: scale}
}

// Sample returns one channel size (funds per side).
func (d *ChannelSizeDist) Sample() float64 {
	return d.scale * (d.min + d.src.LogNormal(d.mu, d.sigma))
}

// CapacityFunc adapts the distribution to the topology generators, drawing
// an independent size per direction.
func (d *ChannelSizeDist) CapacityFunc() func() (float64, float64) {
	return func() (float64, float64) {
		s := d.Sample()
		return s, s
	}
}

// TxValueDist samples transaction values mimicking the credit-card dataset:
// a log-normal body with a Pareto tail, so that most payments are small but
// the trace "contains large-value transactions that the Lightning Network
// cannot handle" (paper §V-A).
type TxValueDist struct {
	src      *rng.Source
	mu       float64
	sigma    float64
	tailProb float64
	tailMin  float64
	tailA    float64
	scale    float64
}

// NewTxValueDist builds the sampler. mean controls the body's central
// tendency; the Fig. 7b/8b sweeps vary it via scale.
func NewTxValueDist(src *rng.Source, scale float64) *TxValueDist {
	if scale <= 0 {
		panic("workload: tx value scale must be positive")
	}
	return &TxValueDist{
		src:      src,
		mu:       math.Log(8), // body median 8 tokens
		sigma:    0.9,
		tailProb: 0.04, // 4% of payments are elephants
		tailMin:  120,
		tailA:    1.3,
		scale:    scale,
	}
}

// Sample returns one transaction value, always >= 1 token (the Min-TU).
func (d *TxValueDist) Sample() float64 {
	var v float64
	if d.src.Bool(d.tailProb) {
		v = d.src.Pareto(d.tailMin, d.tailA)
	} else {
		v = d.src.LogNormal(d.mu, d.sigma)
	}
	v *= d.scale
	if v < 1 {
		v = 1
	}
	return v
}

// Tx is a single payment demand D = (sender, recipient, value) arriving at
// time Arrival (seconds since simulation start).
type Tx struct {
	ID        int
	Sender    graph.NodeID
	Recipient graph.NodeID
	Value     float64
	Arrival   float64
	// Deadline is Arrival + timeout; payments not completed by then fail.
	Deadline float64
	// Hold > 0 makes the sender withhold the settlement preimage for this
	// many seconds after the last hop locks: every HTLC along the path stays
	// locked until the hold expires (or the deadline forces the unwind). This
	// is the channel-jamming/griefing primitive; 0 settles immediately.
	Hold float64
	// Adversarial marks attacker-issued payments. They are excluded from the
	// run's Generated totals (and hence TSR/throughput), which measure honest
	// demand only.
	Adversarial bool
}

// Config controls trace generation.
type Config struct {
	// Clients eligible as senders/recipients.
	Clients []graph.NodeID
	// Rate is the aggregate Poisson arrival rate (tx/sec).
	Rate float64
	// Duration of the trace in seconds.
	Duration float64
	// Timeout per transaction (paper: 3 s).
	Timeout float64
	// ZipfSkew controls endpoint popularity (0 = uniform).
	ZipfSkew float64
	// ValueScale feeds NewTxValueDist.
	ValueScale float64
	// CirculationFraction in [0,1): fraction of transactions drawn from a
	// fixed circulation pattern (A→B, C→B, B→A with imbalanced rates) that
	// provably induces local deadlocks under naive routing (§II-B). The
	// paper confirms its trace causes local deadlocks; this reproduces that
	// property deterministically.
	CirculationFraction float64
	// OnOff switches the arrival process from homogeneous Poisson to a
	// bursty on-off modulated Poisson process. Nil keeps the plain process
	// (and the exact draw sequence) unchanged.
	OnOff *OnOffConfig
}

// OnOffConfig parameterizes the bursty arrival process: exponentially
// distributed ON and OFF phases (a Markov-modulated Poisson process), with
// the aggregate rate scaled by OnFactor during ON phases and OffFactor
// during OFF phases. The trace starts in an ON phase, so a burst hits the
// network cold — the hardest case for rate-controller warm-up.
type OnOffConfig struct {
	// MeanOn and MeanOff are the mean phase durations in seconds.
	MeanOn  float64
	MeanOff float64
	// OnFactor (> 0) and OffFactor (>= 0, typically < 1) multiply Rate
	// during the respective phase; OffFactor 0 silences OFF phases entirely.
	OnFactor  float64
	OffFactor float64
}

// Validate checks the burst parameters.
func (o OnOffConfig) Validate() error {
	if o.MeanOn <= 0 || o.MeanOff <= 0 {
		return fmt.Errorf("workload: on/off mean durations must be positive, got %v/%v", o.MeanOn, o.MeanOff)
	}
	if o.OnFactor <= 0 {
		return fmt.Errorf("workload: OnFactor must be positive, got %v", o.OnFactor)
	}
	if o.OffFactor < 0 {
		return fmt.Errorf("workload: OffFactor must be >= 0, got %v", o.OffFactor)
	}
	return nil
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Clients) < 2 {
		return fmt.Errorf("workload: need >= 2 clients, got %d", len(c.Clients))
	}
	if c.Rate <= 0 {
		return fmt.Errorf("workload: rate must be positive, got %v", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("workload: duration must be positive, got %v", c.Duration)
	}
	if c.Timeout <= 0 {
		return fmt.Errorf("workload: timeout must be positive, got %v", c.Timeout)
	}
	if c.ZipfSkew < 0 {
		return fmt.Errorf("workload: zipf skew must be >= 0, got %v", c.ZipfSkew)
	}
	if c.ValueScale <= 0 {
		return fmt.Errorf("workload: value scale must be positive, got %v", c.ValueScale)
	}
	if c.CirculationFraction < 0 || c.CirculationFraction >= 1 {
		return fmt.Errorf("workload: circulation fraction must be in [0,1), got %v", c.CirculationFraction)
	}
	if c.OnOff != nil {
		if err := c.OnOff.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// arrivalProcess walks the arrival time axis: homogeneous Poisson by
// default, piecewise-exponential (exact, via redraw-at-boundary — the
// process is memoryless) when OnOff is set.
type arrivalProcess struct {
	src      *rng.Source
	rate     float64
	onOff    *OnOffConfig
	on       bool
	phaseEnd float64
}

func newArrivalProcess(src *rng.Source, cfg Config) *arrivalProcess {
	a := &arrivalProcess{src: src, rate: cfg.Rate, onOff: cfg.OnOff}
	if a.onOff != nil {
		a.on = true
		a.phaseEnd = src.Exponential(1 / a.onOff.MeanOn)
	}
	return a
}

// next returns the first arrival after `now`.
func (a *arrivalProcess) next(now float64) float64 {
	if a.onOff == nil {
		return now + a.src.Exponential(a.rate)
	}
	for {
		rate := a.rate * a.onOff.OffFactor
		if a.on {
			rate = a.rate * a.onOff.OnFactor
		}
		t := math.Inf(1)
		if rate > 0 {
			t = now + a.src.Exponential(rate)
		}
		if t < a.phaseEnd {
			return t
		}
		// The candidate falls past the phase boundary: advance to the
		// boundary and redraw at the new phase's rate (exact for a
		// piecewise-constant-rate Poisson process).
		now = a.phaseEnd
		a.on = !a.on
		mean := a.onOff.MeanOff
		if a.on {
			mean = a.onOff.MeanOn
		}
		a.phaseEnd = now + a.src.Exponential(1/mean)
	}
}

// Generate produces a reproducible transaction trace sorted by arrival time.
func Generate(src *rng.Source, cfg Config) ([]Tx, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	arrivalSrc := src.Split(1)
	endpointSrc := src.Split(2)
	valueSrc := src.Split(3)
	circSrc := src.Split(4)

	values := NewTxValueDist(valueSrc, cfg.ValueScale)
	zipf := rng.NewZipf(endpointSrc, len(cfg.Clients), cfg.ZipfSkew)

	// Circulation triple: pick three distinct popular clients; payments
	// cycle A→B at 1x, C→B at 2x, B→A at 2x (Fig. 1(b) rates), leaving C
	// drained — a local deadlock under naive shortest-path routing.
	circ := circulationPattern(cfg.Clients)

	arrivals := newArrivalProcess(arrivalSrc, cfg)

	var txs []Tx
	now := 0.0
	id := 0
	for {
		now = arrivals.next(now)
		if now >= cfg.Duration {
			break
		}
		var s, r graph.NodeID
		var val float64
		if circSrc.Bool(cfg.CirculationFraction) {
			s, r, val = circ.next(circSrc)
			val *= cfg.ValueScale
		} else {
			si := zipf.Next()
			ri := zipf.Next()
			for ri == si {
				ri = endpointSrc.IntN(len(cfg.Clients))
			}
			s, r = cfg.Clients[si], cfg.Clients[ri]
			val = values.Sample()
		}
		txs = append(txs, Tx{
			ID:        id,
			Sender:    s,
			Recipient: r,
			Value:     val,
			Arrival:   now,
			Deadline:  now + cfg.Timeout,
		})
		id++
	}
	if len(txs) == 0 {
		return nil, fmt.Errorf("workload: trace is empty (rate %v, duration %v)", cfg.Rate, cfg.Duration)
	}
	return txs, nil
}

// FlashConfig parameterizes a flash-crowd demand shock: a sudden
// arrival-rate spike concentrated on one region of the client space. The
// spike superposes on a base trace — two independent Poisson processes sum
// to a Poisson process — so during [Start, Start+Duration) the aggregate
// rate targeting the region is SpikeFactor × the base rate.
type FlashConfig struct {
	// Start and Duration bound the shock window in seconds.
	Start    float64
	Duration float64
	// SpikeFactor >= 1 multiplies the base rate during the window; the extra
	// (SpikeFactor−1)·Rate arrivals are what GenerateFlash emits.
	SpikeFactor float64
	// RegionFraction in (0,1] sizes the targeted region: a contiguous span of
	// the client slice whose members receive all spike payments.
	RegionFraction float64
	// IDBase is the first transaction ID assigned; spike IDs must not collide
	// with the base trace's.
	IDBase int
}

// Validate checks the shock parameters.
func (f FlashConfig) Validate() error {
	if f.Start < 0 || f.Duration <= 0 {
		return fmt.Errorf("workload: flash window must have start >= 0 and positive duration, got %v+%v", f.Start, f.Duration)
	}
	if f.SpikeFactor < 1 {
		return fmt.Errorf("workload: flash spike factor must be >= 1, got %v", f.SpikeFactor)
	}
	if f.RegionFraction <= 0 || f.RegionFraction > 1 {
		return fmt.Errorf("workload: flash region fraction must be in (0,1], got %v", f.RegionFraction)
	}
	return nil
}

// GenerateFlash produces the spike component of a flash crowd: honest
// payments (they count toward TSR) at rate (SpikeFactor−1)·base.Rate during
// the window, every recipient drawn from one contiguous region of the
// clients, senders drawn uniformly from everywhere. The result is sorted by
// arrival; it is empty when SpikeFactor is 1.
func GenerateFlash(src *rng.Source, base Config, f FlashConfig) ([]Tx, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	extraRate := (f.SpikeFactor - 1) * base.Rate
	if extraRate <= 0 {
		return nil, nil
	}
	arrivalSrc := src.Split(1)
	endpointSrc := src.Split(2)
	valueSrc := src.Split(3)
	values := NewTxValueDist(valueSrc, base.ValueScale)

	regionSize := int(f.RegionFraction * float64(len(base.Clients)))
	if regionSize < 1 {
		regionSize = 1
	}
	regionStart := 0
	if n := len(base.Clients) - regionSize; n > 0 {
		regionStart = src.IntN(n + 1)
	}
	region := base.Clients[regionStart : regionStart+regionSize]

	var txs []Tx
	id := f.IDBase
	end := f.Start + f.Duration
	for now := f.Start + arrivalSrc.Exponential(extraRate); now < end; now += arrivalSrc.Exponential(extraRate) {
		r := region[endpointSrc.IntN(len(region))]
		s := base.Clients[endpointSrc.IntN(len(base.Clients))]
		for s == r {
			s = base.Clients[endpointSrc.IntN(len(base.Clients))]
		}
		txs = append(txs, Tx{
			ID:        id,
			Sender:    s,
			Recipient: r,
			Value:     values.Sample(),
			Arrival:   now,
			Deadline:  now + base.Timeout,
		})
		id++
	}
	return txs, nil
}

// circulation reproduces the Fig. 1(b) imbalanced-rate pattern over the
// first three clients: A and C pay B, B pays A, with C receiving nothing.
type circulation struct {
	a, b, c graph.NodeID
}

func circulationPattern(clients []graph.NodeID) circulation {
	return circulation{a: clients[0], b: clients[1], c: clients[2%len(clients)]}
}

// next picks one circulation payment. Weights 1:2:2 reproduce the paper's
// A→B 1 token/s, C→B 2 token/s, B→A 2 token/s rates.
func (c circulation) next(src *rng.Source) (s, r graph.NodeID, val float64) {
	switch src.IntN(5) {
	case 0:
		return c.a, c.b, 1
	case 1, 2:
		return c.c, c.b, 1
	default:
		return c.b, c.a, 1
	}
}
