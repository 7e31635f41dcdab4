package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 256; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("child streams look identical: %d collisions out of 256", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	// Splitting with the same label from identically-seeded parents in the
	// same consumption state must give identical children.
	p1, p2 := New(9), New(9)
	c1, c2 := p1.Split(5), p2.Split(5)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("split children differ for identical parent state")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(3)
	const rate = 2.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exponential(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exponential mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate <= 0")
		}
	}()
	New(1).Exponential(0)
}

func TestLogNormalMedian(t *testing.T) {
	s := New(11)
	const mu, sigma = 5.0, 1.2
	const n = 100000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormal(mu, sigma)
	}
	// Median of a log-normal is exp(mu); check via counting.
	below := 0
	med := math.Exp(mu)
	for _, v := range vals {
		if v < med {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

func TestParetoMinimumAndTail(t *testing.T) {
	s := New(13)
	const xm, alpha = 4.0, 1.5
	for i := 0; i < 10000; i++ {
		v := s.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto variate %v below minimum %v", v, xm)
		}
	}
}

func TestZipfUniformWhenSkewZero(t *testing.T) {
	s := New(19)
	z := NewZipf(s, 10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for r, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("rank %d frequency %v, want ~0.1", r, frac)
		}
	}
}

func TestZipfSkewFavorsLowRanks(t *testing.T) {
	s := New(23)
	z := NewZipf(s, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("rank 0 count %d not greater than rank 50 count %d", counts[0], counts[50])
	}
	if counts[0] <= counts[99] {
		t.Fatalf("rank 0 count %d not greater than rank 99 count %d", counts[0], counts[99])
	}
}

func TestZipfRangeProperty(t *testing.T) {
	s := New(29)
	f := func(seed uint64, nRaw uint8, skewRaw uint8) bool {
		n := int(nRaw)%50 + 1
		skew := float64(skewRaw) / 64.0
		z := NewZipf(s.Split(seed), n, skew)
		for i := 0; i < 100; i++ {
			r := z.Next()
			if r < 0 || r >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(31)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(37)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", frac)
	}
}
