package workload

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
)

func TestChannelSizeCalibration(t *testing.T) {
	d := NewChannelSizeDist(rng.New(1), 1)
	const n = 200000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = d.Sample()
	}
	sort.Float64s(vals)
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= n
	if vals[0] < LNChannelMin {
		t.Fatalf("min %v below dataset min %v", vals[0], LNChannelMin)
	}
	if math.Abs(mean-LNChannelMean) > 0.05*LNChannelMean {
		t.Fatalf("mean %v, want ~%v", mean, LNChannelMean)
	}
	if median := vals[n/2]; math.Abs(median-LNChannelMedian) > 0.05*LNChannelMedian {
		t.Fatalf("median %v, want ~%v", median, LNChannelMedian)
	}
	// Heavy tail: max should dwarf the mean.
	if vals[n-1] < 10*mean {
		t.Fatalf("max %v not heavy-tailed vs mean %v", vals[n-1], mean)
	}
}

func TestChannelSizeScale(t *testing.T) {
	base := NewChannelSizeDist(rng.New(5), 1)
	scaled := NewChannelSizeDist(rng.New(5), 3)
	for i := 0; i < 100; i++ {
		b, s := base.Sample(), scaled.Sample()
		if math.Abs(s-3*b) > 1e-9 {
			t.Fatalf("scaling broken: %v vs 3*%v", s, b)
		}
	}
}

func TestChannelSizePanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChannelSizeDist(rng.New(1), 0)
}

func TestTxValueDistProperties(t *testing.T) {
	d := NewTxValueDist(rng.New(2), 1)
	const n = 100000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = d.Sample()
	}
	sort.Float64s(vals)
	if vals[0] < 1 {
		t.Fatalf("value %v below Min-TU 1", vals[0])
	}
	// Must contain elephants far above the median (large-value txs the LN
	// cannot handle over a median-sized channel of 152).
	if vals[n-1] < 500 {
		t.Fatalf("no large-value transactions: max %v", vals[n-1])
	}
	if median := vals[n/2]; median > 20 {
		t.Fatalf("median %v too large; body should be small payments", median)
	}
}

func clients(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func validCfg() Config {
	return Config{
		Clients:             clients(20),
		Rate:                100,
		Duration:            10,
		Timeout:             3,
		ZipfSkew:            0.9,
		ValueScale:          1,
		CirculationFraction: 0.2,
	}
}

func TestGenerateBasics(t *testing.T) {
	txs, err := Generate(rng.New(3), validCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Poisson(100/s * 10s) ≈ 1000 arrivals.
	if len(txs) < 800 || len(txs) > 1200 {
		t.Fatalf("trace length %d, want ~1000", len(txs))
	}
	prev := -1.0
	for i, tx := range txs {
		if tx.ID != i {
			t.Fatalf("ids not dense: tx[%d].ID = %d", i, tx.ID)
		}
		if tx.Arrival < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = tx.Arrival
		if tx.Sender == tx.Recipient {
			t.Fatalf("self-payment in trace: %+v", tx)
		}
		if tx.Value < 1 {
			t.Fatalf("value below Min-TU: %+v", tx)
		}
		if math.Abs(tx.Deadline-tx.Arrival-3) > 1e-9 {
			t.Fatalf("deadline wrong: %+v", tx)
		}
		if tx.Arrival < 0 || tx.Arrival >= 10 {
			t.Fatalf("arrival outside duration: %+v", tx)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t1, err := Generate(rng.New(11), validCfg())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Generate(rng.New(11), validCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != len(t2) {
		t.Fatalf("lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace differs at %d: %+v vs %+v", i, t1[i], t2[i])
		}
	}
}

func TestGenerateCirculationInducesImbalance(t *testing.T) {
	cfg := validCfg()
	cfg.CirculationFraction = 0.9
	cfg.ZipfSkew = 0
	txs, err := Generate(rng.New(13), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Net flow per the Fig. 1(b) pattern: B receives from A and C but only
	// pays A, so C's net outflow is strictly positive (it is drained).
	net := map[graph.NodeID]float64{}
	for _, tx := range txs {
		net[tx.Sender] -= tx.Value
		net[tx.Recipient] += tx.Value
	}
	c := cfg.Clients[2]
	if net[c] >= 0 {
		t.Fatalf("circulation should drain client C: net[%d] = %v", c, net[c])
	}
}

func TestGenerateValidation(t *testing.T) {
	mod := func(f func(*Config)) Config {
		c := validCfg()
		f(&c)
		return c
	}
	bad := []Config{
		mod(func(c *Config) { c.Clients = clients(1) }),
		mod(func(c *Config) { c.Rate = 0 }),
		mod(func(c *Config) { c.Duration = -1 }),
		mod(func(c *Config) { c.Timeout = 0 }),
		mod(func(c *Config) { c.ZipfSkew = -0.5 }),
		mod(func(c *Config) { c.ValueScale = 0 }),
		mod(func(c *Config) { c.CirculationFraction = 1 }),
		mod(func(c *Config) { c.CirculationFraction = -0.1 }),
	}
	for i, c := range bad {
		if _, err := Generate(rng.New(1), c); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestGenerateZipfSkewConcentrates(t *testing.T) {
	cfg := validCfg()
	cfg.ZipfSkew = 1.5
	cfg.CirculationFraction = 0
	cfg.Duration = 50
	txs, err := Generate(rng.New(17), cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[graph.NodeID]int{}
	for _, tx := range txs {
		counts[tx.Sender]++
	}
	// Rank-0 client should dominate.
	if counts[cfg.Clients[0]] <= counts[cfg.Clients[10]] {
		t.Fatalf("no sender skew: rank0=%d rank10=%d", counts[cfg.Clients[0]], counts[cfg.Clients[10]])
	}
}

func TestPropertyTraceWellFormed(t *testing.T) {
	f := func(seed uint64, skewRaw, circRaw uint8) bool {
		cfg := validCfg()
		cfg.ZipfSkew = float64(skewRaw) / 100
		cfg.CirculationFraction = float64(circRaw%90) / 100
		cfg.Duration = 2
		txs, err := Generate(rng.New(seed), cfg)
		if err != nil {
			return len(txs) == 0 // only the "empty trace" error is legal here
		}
		for _, tx := range txs {
			if tx.Sender == tx.Recipient || tx.Value < 1 || tx.Deadline <= tx.Arrival {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
