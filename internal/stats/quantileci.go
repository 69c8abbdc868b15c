package stats

import (
	"math"
	"math/bits"
	"sort"
	"sync"
)

// CI is a two-sided confidence interval at the given confidence level.
type CI struct {
	Low, High float64
	// Level is the nominal confidence level requested, e.g. 0.95. The
	// achieved coverage of an order-statistic interval is at least Level
	// (it is a conservative, distribution-free interval).
	Level float64
}

// Contains reports whether v lies inside the interval (inclusive).
func (ci CI) Contains(v float64) bool { return v >= ci.Low && v <= ci.High }

// StrictlyPositive reports whether the whole interval lies above zero.
func (ci CI) StrictlyPositive() bool { return ci.Low > 0 }

// StrictlyNegative reports whether the whole interval lies below zero.
func (ci CI) StrictlyNegative() bool { return ci.High < 0 }

// Below reports whether this interval lies entirely below other, i.e. its
// upper bound is smaller than other's lower bound. This is the comparison
// approach L1 performs between the distance sample of the candidate
// dependent application and the random-point sample (§3.1: "If the upper
// bound of CI_b is below the lower bound for CI_r ...").
func (ci CI) Below(other CI) bool { return ci.High < other.Low }

// Width returns High − Low.
func (ci CI) Width() float64 { return ci.High - ci.Low }

// QuantileCIIndices returns 1-based order-statistic indices (j, k) such
// that [x_(j), x_(k)] is a distribution-free confidence interval for the
// p-quantile with coverage ≥ level. The interval follows Le Boudec's
// construction (the order-statistics method cited as [9] in the paper):
// P(x_(j) ≤ q_p ≤ x_(k)) = P(j ≤ B < k) with B ~ Binomial(n, p), and (j, k)
// are chosen as the tightest symmetric pair around np achieving the level.
//
// For n up to exactSearchLimit the pair is found by exact binomial search,
// memoized per (n, p, level); beyond that the normal approximation
//
//	j = ⌊np − z·√(np(1−p))⌋, k = ⌈np + z·√(np(1−p))⌉ + 1
//
// is used. It returns ErrShortSample when no valid pair exists (the sample
// is too small to support the requested level, e.g. n < 6 for the median at
// 95%).
func QuantileCIIndices(n int, p, level float64) (j, k int, err error) {
	if n <= 0 {
		return 0, 0, ErrEmpty
	}
	if level <= 0 || level >= 1 {
		return 0, 0, ErrBadLevel
	}
	if p <= 0 || p >= 1 {
		return 0, 0, ErrBadLevel
	}
	if n > exactSearchLimit {
		return quantileCINormal(n, p, level)
	}
	// NaN passes the range checks above but never equals itself as a map
	// key, so it would only grow the memo.
	if math.IsNaN(p) || math.IsNaN(level) {
		return quantileCIExact(n, p, level)
	}
	key := ciKey{n: n, p: p, level: level}
	ciMemo.RLock()
	r, ok := ciMemo.m[key]
	ciMemo.RUnlock()
	if !ok {
		r.j, r.k, r.err = quantileCIExact(n, p, level)
		ciMemo.Lock()
		ciMemo.m[key] = r
		ciMemo.Unlock()
	}
	return r.j, r.k, r.err
}

// exactSearchLimit is the largest n whose ranks come from the exact
// binomial search (and the memo).
const exactSearchLimit = 2000

type ciKey struct {
	n        int
	p, level float64
}

type ciRanks struct {
	j, k int
	err  error
}

// ciMemo holds the exact-search results of QuantileCIIndices: a pure
// function of (n, p, level), recomputed otherwise for every L1 slot test.
// It stays bounded because only n ≤ exactSearchLimit is cached.
var ciMemo = struct {
	sync.RWMutex
	m map[ciKey]ciRanks
}{m: make(map[ciKey]ciRanks)}

// maxCoverage is the coverage of the widest interval [x_(1), x_(n)]:
// P(1 ≤ B ≤ n−1) = 1 − p^n − (1−p)^n.
func maxCoverage(n int, p float64) float64 {
	return 1 - math.Pow(p, float64(n)) - math.Pow(1-p, float64(n))
}

// quantileCINormal is the normal-approximation branch of
// QuantileCIIndices.
func quantileCINormal(n int, p, level float64) (j, k int, err error) {
	if maxCoverage(n, p) < level {
		return 0, 0, ErrShortSample
	}
	z := NormalQuantile(1 - (1-level)/2)
	np := float64(n) * p
	sd := math.Sqrt(np * (1 - p))
	j = int(math.Floor(np - z*sd))
	k = int(math.Ceil(np+z*sd)) + 1
	if j < 1 {
		j = 1
	}
	if k > n {
		k = n
	}
	return j, k, nil
}

// quantileCIExact is the exact-search branch of QuantileCIIndices: start
// from the symmetric pair around np and widen the side that gains the most
// coverage until the level is reached.
func quantileCIExact(n int, p, level float64) (j, k int, err error) {
	if maxCoverage(n, p) < level {
		return 0, 0, ErrShortSample
	}
	np := float64(n) * p
	j = int(math.Floor(np))
	if j < 1 {
		j = 1
	}
	if j > n {
		j = n
	}
	k = j + 1
	if k > n {
		k = n
		j = n - 1
		if j < 1 {
			return 0, 0, ErrShortSample
		}
	}
	cover := func(j, k int) float64 {
		// P(j ≤ B ≤ k−1) = CDF(k−1) − CDF(j−1)
		return BinomialCDF(n, k-1, p) - BinomialCDF(n, j-1, p)
	}
	for cover(j, k) < level {
		canLeft := j > 1
		canRight := k < n
		if !canLeft && !canRight {
			return 0, 0, ErrShortSample
		}
		gainLeft, gainRight := -1.0, -1.0
		if canLeft {
			gainLeft = BinomialPMF(n, j-1, p)
		}
		if canRight {
			gainRight = BinomialPMF(n, k-1, p)
		}
		if gainLeft >= gainRight {
			j--
		} else {
			k++
		}
	}
	return j, k, nil
}

// QuantileCI returns a distribution-free confidence interval for the
// p-quantile of the distribution underlying the sorted sample, with coverage
// at least level. The sample must be sorted in non-decreasing order.
func QuantileCI(sorted []float64, p, level float64) (CI, error) {
	j, k, err := QuantileCIIndices(len(sorted), p, level)
	if err != nil {
		return CI{}, err
	}
	return CI{Low: sorted[j-1], High: sorted[k-1], Level: level}, nil
}

// MedianCI returns a distribution-free confidence interval for the median of
// the distribution underlying the sorted sample, with coverage ≥ level.
// This is the "robust order statistics method" of the paper's approach L1.
func MedianCI(sorted []float64, level float64) (CI, error) {
	return QuantileCI(sorted, 0.5, level)
}

// MedianCIInPlace returns what MedianCI returns for xs once sorted, without
// sorting: it selects the two order statistics the interval needs,
// reordering xs in place. xs must not contain NaN.
func MedianCIInPlace(xs []float64, level float64) (CI, error) {
	j, k, err := QuantileCIIndices(len(xs), 0.5, level)
	if err != nil {
		return CI{}, err
	}
	selectNth(xs, k-1)
	selectNth(xs[:k-1], j-1)
	return CI{Low: xs[j-1], High: xs[k-1], Level: level}, nil
}

// selectNth reorders xs so that xs[nth] holds the value sort.Float64s would
// put there, with no greater value before it and no smaller one after it.
// It is Hoare's selection with a median-of-three pivot, which splits runs
// of ties (common in distance samples) evenly; past a depth budget it sorts
// the remaining range, bounding the worst case at O(n log n). xs must not
// contain NaN.
func selectNth(xs []float64, nth int) {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 12; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		// Order xs[lo], xs[mid], xs[hi]: the ends then bound both scans.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] ≤ pivot ≤ xs[i..hi], and anything between equals
		// the pivot.
		switch {
		case nth <= j:
			hi = j
		case nth >= i:
			lo = i
		default:
			return
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// MedianCIOf sorts a copy of xs and returns MedianCI of the result.
func MedianCIOf(xs []float64, level float64) (CI, error) {
	return MedianCI(SortedCopy(xs), level)
}

// PairedMedianTest performs the median test the paper applies in §4.7: for
// paired samples (a_i, b_i) it computes a distribution-free confidence
// interval at the given level for the median of the differences a_i − b_i.
// The null hypothesis of a zero (or opposite-signed) median is rejected when
// the interval is strictly positive, respectively strictly negative.
type PairedMedianTest struct {
	// Median is the sample median of the differences.
	Median float64
	// CI is the order-statistic confidence interval for the median
	// difference.
	CI CI
}

// NewPairedMedianTest computes the paired median test for samples a and b at
// the given confidence level. It returns ErrMismatch when the samples have
// different lengths and ErrShortSample when the sample is too small to
// support the level.
func NewPairedMedianTest(a, b []float64, level float64) (PairedMedianTest, error) {
	if len(a) != len(b) {
		return PairedMedianTest{}, ErrMismatch
	}
	if len(a) == 0 {
		return PairedMedianTest{}, ErrEmpty
	}
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	sort.Float64s(d)
	ci, err := MedianCI(d, level)
	if err != nil {
		return PairedMedianTest{}, err
	}
	return PairedMedianTest{Median: Median(d), CI: ci}, nil
}
