package pointproc

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"logscape/internal/logmodel"
)

// DistNearest returns dist(t, A) as defined by equation (1) of the paper:
// the smallest absolute difference between t and any point of the sorted
// sequence a. It returns math.MaxInt64 (as Millis) for an empty sequence.
func DistNearest(t logmodel.Millis, a []logmodel.Millis) logmodel.Millis {
	n := len(a)
	if n == 0 {
		return logmodel.Millis(math.MaxInt64)
	}
	i := sort.Search(n, func(j int) bool { return a[j] >= t })
	best := logmodel.Millis(math.MaxInt64)
	if i < n {
		best = a[i] - t
	}
	if i > 0 {
		if d := t - a[i-1]; d < best {
			best = d
		}
	}
	return best
}

// DistNext returns the distance from t to the next arrival in a at or after
// t — the variant used by Li & Ma's original algorithm, kept for the
// ablation in DESIGN.md (§5.2). It returns math.MaxInt64 when no later
// arrival exists.
func DistNext(t logmodel.Millis, a []logmodel.Millis) logmodel.Millis {
	n := len(a)
	i := sort.Search(n, func(j int) bool { return a[j] >= t })
	if i == n {
		return logmodel.Millis(math.MaxInt64)
	}
	return a[i] - t
}

// AppendDistances appends dist(p, a) for every point p of points to dst, as
// float64 seconds, and returns the extended slice. The distance is
// DistNext when next is set and DistNearest otherwise; points whose
// distance is undefined (MaxInt64) are skipped. points may be in any order:
// each one is located in a by binary search. For sorted points,
// AppendSortedDistances gives the same result in one pass.
func AppendDistances(dst []float64, points, a []logmodel.Millis, next bool) []float64 {
	dist := DistNearest
	if next {
		dist = DistNext
	}
	for _, p := range points {
		if d := dist(p, a); d != logmodel.Millis(math.MaxInt64) {
			dst = append(dst, d.Seconds())
		}
	}
	return dst
}

// AppendSortedDistances is AppendDistances for points sorted in
// non-decreasing order: one merge walk over points and a replaces the
// per-point binary search.
func AppendSortedDistances(dst []float64, points, a []logmodel.Millis, next bool) []float64 {
	i := 0
	for _, p := range points {
		for i < len(a) && a[i] < p {
			i++
		}
		// i is now the first arrival at or after p, as DistNext and
		// DistNearest find it by binary search.
		best := logmodel.Millis(math.MaxInt64)
		if i < len(a) {
			best = a[i] - p
		}
		if !next && i > 0 {
			if d := p - a[i-1]; d < best {
				best = d
			}
		}
		if best != logmodel.Millis(math.MaxInt64) {
			dst = append(dst, best.Seconds())
		}
	}
	return dst
}

// AppendUniform appends n independent uniform random points in [r.Start,
// r.End) to dst — the random sample S_r of §3.1 — and returns the extended
// slice. The points are unsorted. An empty range or n ≤ 0 appends nothing.
func AppendUniform(dst []logmodel.Millis, rng *rand.Rand, r logmodel.TimeRange, n int) []logmodel.Millis {
	d := int64(r.Duration())
	if d <= 0 || n <= 0 {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, r.Start+logmodel.Millis(rng.Int63n(d)))
	}
	return dst
}

// Subsampler draws order-preserving subsamples into buffers it reuses
// across calls. The zero value is ready to use.
type Subsampler struct {
	chosen []uint64 // bitset over the indices of a; all zero between calls
	out    []logmodel.Millis
}

// Subsample returns at most n points of a chosen uniformly without
// replacement, preserving order — the subsampling of B in §3.1 that bounds
// the cost of the per-slot test. When len(a) ≤ n the original slice is
// returned unchanged; otherwise the result is valid until the next call.
func (s *Subsampler) Subsample(rng *rand.Rand, a []logmodel.Millis, n int) []logmodel.Millis {
	if n <= 0 {
		return nil
	}
	if len(a) <= n {
		return a
	}
	words := (len(a) + 63) / 64
	if cap(s.chosen) < words {
		s.chosen = make([]uint64, words)
	}
	chosen := s.chosen[:words]
	// Floyd's algorithm for a sample of indices.
	for j := len(a) - n; j < len(a); j++ {
		k := rng.Intn(j + 1)
		if chosen[k/64]&(1<<(k%64)) != 0 {
			k = j
		}
		chosen[k/64] |= 1 << (k % 64)
	}
	// Walk the bitset in index order, clearing it for the next call.
	out := s.out[:0]
	for w, word := range chosen {
		for word != 0 {
			out = append(out, a[w*64+bits.TrailingZeros64(word)])
			word &= word - 1
		}
		chosen[w] = 0
	}
	s.out = out
	return out
}

// Homogeneous generates a homogeneous Poisson process with the given rate
// (events per second) over r. The result is sorted.
func Homogeneous(rng *rand.Rand, r logmodel.TimeRange, rate float64) []logmodel.Millis {
	if rate <= 0 || r.End <= r.Start {
		return nil
	}
	var out []logmodel.Millis
	t := float64(r.Start)
	for {
		t += rng.ExpFloat64() / rate * 1000 // rate is per second, t in ms
		if t >= float64(r.End) {
			return out
		}
		out = append(out, logmodel.Millis(t))
	}
}

// IntensityFunc maps a time to an instantaneous rate in events per second.
type IntensityFunc func(t logmodel.Millis) float64

// NonHomogeneous generates a non-homogeneous Poisson process over r with
// the given intensity function by thinning against maxRate (events per
// second), which must dominate the intensity everywhere on r; intensities
// above maxRate are clipped. The result is sorted.
func NonHomogeneous(rng *rand.Rand, r logmodel.TimeRange, intensity IntensityFunc, maxRate float64) []logmodel.Millis {
	if maxRate <= 0 || r.End <= r.Start {
		return nil
	}
	var out []logmodel.Millis
	t := float64(r.Start)
	for {
		t += rng.ExpFloat64() / maxRate * 1000
		if t >= float64(r.End) {
			return out
		}
		m := logmodel.Millis(t)
		if rng.Float64()*maxRate < intensity(m) {
			out = append(out, m)
		}
	}
}

// MergeSorted merges two sorted timestamp sequences into one sorted
// sequence.
func MergeSorted(a, b []logmodel.Millis) []logmodel.Millis {
	out := make([]logmodel.Millis, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// CountInRange returns the number of points of the sorted sequence a that
// fall in [r.Start, r.End).
func CountInRange(a []logmodel.Millis, r logmodel.TimeRange) int {
	lo := sort.Search(len(a), func(i int) bool { return a[i] >= r.Start })
	hi := sort.Search(len(a), func(i int) bool { return a[i] >= r.End })
	return hi - lo
}

// SliceRange returns the sub-slice of the sorted sequence a inside
// [r.Start, r.End), sharing backing storage.
func SliceRange(a []logmodel.Millis, r logmodel.TimeRange) []logmodel.Millis {
	lo := sort.Search(len(a), func(i int) bool { return a[i] >= r.Start })
	hi := sort.Search(len(a), func(i int) bool { return a[i] >= r.End })
	return a[lo:hi]
}
