package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/rng"
)

func testConfig() Config {
	clients := make([]graph.NodeID, 30)
	for i := range clients {
		clients[i] = graph.NodeID(i)
	}
	return Config{
		Clients:             clients,
		Rate:                50,
		Duration:            4,
		Timeout:             3,
		ZipfSkew:            0.8,
		ValueScale:          1,
		CirculationFraction: 0.2,
	}
}

func TestTraceRoundTrip(t *testing.T) {
	txs, err := Generate(rng.New(3), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("id,sender,recipient,value,arrival,deadline\n")
	for _, tx := range txs {
		fmt.Fprintf(&buf, "%d,%d,%d,%v,%v,%v\n", tx.ID, tx.Sender, tx.Recipient, tx.Value, tx.Arrival, tx.Deadline)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, txs) {
		t.Fatalf("trace round trip diverged: %d vs %d txs", len(got), len(txs))
	}
	if MaxNode(got) >= 30 || MaxNode(got) < 0 {
		t.Fatalf("MaxNode = %d out of client range", MaxNode(got))
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	header := "id,sender,recipient,value,arrival,deadline\n"
	cases := map[string]string{
		"empty":             "",
		"no header":         "0,1,2,5,0.5,3.5\n",
		"no rows":           header,
		"bad float":         header + "0,1,2,x,0.5,3.5\n",
		"self payment":      header + "0,1,1,5,0.5,3.5\n",
		"negative endpoint": header + "0,-1,2,5,0.5,3.5\n",
		"zero value":        header + "0,1,2,0,0.5,3.5\n",
		"deadline early":    header + "0,1,2,5,0.5,0.1\n",
		"unsorted":          header + "0,1,2,5,1.5,4.5\n1,2,3,5,0.5,3.5\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTrace accepted malformed input", name)
		}
	}
}

func TestOnOffArrivalsBursty(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 40
	cfg.OnOff = &OnOffConfig{MeanOn: 1, MeanOff: 1, OnFactor: 4, OffFactor: 0}
	bursty, err := Generate(rng.New(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With OffFactor 0 and symmetric 1s phases, the effective rate is about
	// half of 4×Rate: the count should sit far from both plain Rate·D and
	// peak 4·Rate·D.
	n := float64(len(bursty))
	if n < 0.8*cfg.Rate*cfg.Duration || n > 3.2*cfg.Rate*cfg.Duration {
		t.Fatalf("bursty trace has %v arrivals for rate %v over %vs", n, cfg.Rate, cfg.Duration)
	}
	// Burstiness shows up as a heavy tail of inter-arrival gaps (OFF phases):
	// the max gap should dwarf the mean gap by far more than a plain Poisson
	// process would allow.
	maxGap, prev := 0.0, 0.0
	for _, tx := range bursty {
		if g := tx.Arrival - prev; g > maxGap {
			maxGap = g
		}
		prev = tx.Arrival
	}
	meanGap := prev / n
	if maxGap < 10*meanGap {
		t.Fatalf("max gap %v vs mean %v: arrivals not bursty", maxGap, meanGap)
	}
	// Determinism.
	again, err := Generate(rng.New(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, bursty) {
		t.Fatal("bursty generation is not deterministic")
	}
}

// TestOnOffNilKeepsDrawSequence pins that adding the OnOff field did not
// perturb the default generator: traces are a seed-stable contract that the
// golden figure fixtures depend on.
func TestOnOffNilKeepsDrawSequence(t *testing.T) {
	a, err := Generate(rng.New(4), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.OnOff = nil
	b, err := Generate(rng.New(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("nil OnOff changed the generated trace")
	}
}

func TestOnOffValidate(t *testing.T) {
	cfg := testConfig()
	cfg.OnOff = &OnOffConfig{MeanOn: 0, MeanOff: 1, OnFactor: 2, OffFactor: 0}
	if _, err := Generate(rng.New(1), cfg); err == nil {
		t.Fatal("accepted MeanOn=0")
	}
	cfg.OnOff = &OnOffConfig{MeanOn: 1, MeanOff: 1, OnFactor: 0, OffFactor: 0}
	if _, err := Generate(rng.New(1), cfg); err == nil {
		t.Fatal("accepted OnFactor=0")
	}
	cfg.OnOff = &OnOffConfig{MeanOn: 1, MeanOff: 1, OnFactor: 2, OffFactor: -1}
	if _, err := Generate(rng.New(1), cfg); err == nil {
		t.Fatal("accepted negative OffFactor")
	}
}
