// Package rng provides deterministic random number generation and the
// statistical distributions used throughout the Splicer simulator.
//
// Every stochastic component of the simulator (topology generation, workload
// synthesis, randomized placement) draws from an *rng.Source seeded
// explicitly, so that experiments are reproducible run-to-run and
// machine-to-machine. Sources are splittable: deriving independent child
// streams for sub-components avoids accidental cross-coupling when one
// component changes how many variates it consumes.
package rng

import (
	"math"
	"math/rand/v2"
)

// Source is a deterministic random source with distribution helpers.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with the given seed. Two Sources created with
// the same seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Split derives an independent child stream. The child is a pure function of
// the parent seed and the label, so callers can re-create it without
// consuming parent state.
func (s *Source) Split(label uint64) *Source {
	// Mix the label through splitmix64 so that consecutive labels give
	// decorrelated seeds.
	z := label + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	hi := s.r.Uint64()
	return &Source{r: rand.New(rand.NewPCG(hi^z, z))}
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.r.Uint64() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Exponential returns an exponential variate with the given rate (λ).
// The mean of the distribution is 1/rate. It panics if rate <= 0.
func (s *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential rate must be positive")
	}
	return s.r.ExpFloat64() / rate
}

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal (mu, sigma).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// Pareto returns a Pareto (type I) variate with minimum xm and shape alpha.
func (s *Source) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("rng: Pareto parameters must be positive")
	}
	u := 1 - s.r.Float64() // in (0, 1]
	return xm / math.Pow(u, 1/alpha)
}

// Zipf draws integers in [0, n) with probability proportional to
// 1/(rank+1)^skew. A skew of 0 is uniform.
type Zipf struct {
	cum []float64 // cumulative weights, normalized
	src *Source
}

// NewZipf builds a Zipf sampler over n elements with the given skew.
// It panics if n <= 0 or skew < 0.
func NewZipf(src *Source, n int, skew float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf n must be positive")
	}
	if skew < 0 {
		panic("rng: Zipf skew must be non-negative")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), skew)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, src: src}
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
