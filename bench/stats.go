package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of an ascending slice
// by the nearest-rank rule: the smallest sample with at least q of the
// samples at or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rankOf(n, q)-1]
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples.
// The small slack keeps a product like 0.9*100 = 90.00000000000001 from
// rounding up to the next rank.
func rankOf(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", lowest first.
var tailPercentiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}

// highestSupported returns the highest candidate percentile that has at
// least ten samples beyond it in a sample of n, or 0 when even the
// median has fewer (n < 20).
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range tailPercentiles {
		if n-rankOf(n, q) >= 10 {
			best = q
		}
	}
	return best
}

// median sorts vals in place and returns their median by nearest rank.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	return percentile(vals, 0.5)
}

// quartiles returns the first quartile, median and third quartile of
// vals the way Python's statistics.quantiles(vals, n=4) does (the
// exclusive method), so that a spread computed here equals the one the
// driver computes. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of the 3 cut points, 1-based
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a
// share of the median; 0 when the median is 0 or there is one value.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// splitmix64 is the harness's own generator: the inputs must not depend
// on the standard library's choice of algorithm.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x1234567} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank k) proportional to 1/(k+1)^s,
// for any s >= 0 (math/rand's Zipf needs s > 1), by inverting a
// precomputed cumulative table.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}
