package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Differential tests of the memoized QuantileCIIndices and the
// selection-based MedianCIInPlace against the uncached, full-sort code
// they replaced.

// quantileCIIndicesRef is QuantileCIIndices as it was before the memo:
// every call runs the exact binomial search.
func quantileCIIndicesRef(n int, p, level float64) (j, k int, err error) {
	if n <= 0 {
		return 0, 0, ErrEmpty
	}
	if level <= 0 || level >= 1 {
		return 0, 0, ErrBadLevel
	}
	if p <= 0 || p >= 1 {
		return 0, 0, ErrBadLevel
	}
	maxCover := 1 - math.Pow(p, float64(n)) - math.Pow(1-p, float64(n))
	if maxCover < level {
		return 0, 0, ErrShortSample
	}
	if n > 2000 {
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

// medianCIRef is the full-sort median interval with uncached ranks.
func medianCIRef(xs []float64, level float64) (CI, error) {
	sorted := SortedCopy(xs)
	j, k, err := quantileCIIndicesRef(len(sorted), 0.5, level)
	if err != nil {
		return CI{}, err
	}
	return CI{Low: sorted[j-1], High: sorted[k-1], Level: level}, nil
}

func TestQuantileCIIndicesMatchesReference(t *testing.T) {
	for _, level := range []float64{0.9, 0.95, 0.98, 0.99} {
		for n := 1; n <= 2000; n++ {
			wj, wk, werr := quantileCIIndicesRef(n, 0.5, level)
			// The first call fills the memo, the second reads it.
			for pass := 0; pass < 2; pass++ {
				j, k, err := QuantileCIIndices(n, 0.5, level)
				if j != wj || k != wk || err != werr {
					t.Fatalf("n=%d level=%v pass %d: (%d,%d,%v), reference (%d,%d,%v)",
						n, level, pass, j, k, err, wj, wk, werr)
				}
			}
		}
	}
	// Other quantiles, and the uncached normal branch past the limit.
	for _, c := range []struct {
		n        int
		p, level float64
	}{{50, 0.1, 0.9}, {700, 0.75, 0.95}, {2001, 0.5, 0.95}, {10000, 0.25, 0.99}} {
		wj, wk, werr := quantileCIIndicesRef(c.n, c.p, c.level)
		j, k, err := QuantileCIIndices(c.n, c.p, c.level)
		if j != wj || k != wk || err != werr {
			t.Errorf("%+v: (%d,%d,%v), reference (%d,%d,%v)", c, j, k, err, wj, wk, werr)
		}
	}
}

func TestQuantileCIIndicesMemoSkipsNaN(t *testing.T) {
	ciMemo.RLock()
	before := len(ciMemo.m)
	ciMemo.RUnlock()
	for i := 0; i < 5; i++ {
		wj, wk, werr := quantileCIIndicesRef(100, 0.5, math.NaN())
		j, k, err := QuantileCIIndices(100, 0.5, math.NaN())
		if j != wj || k != wk || err != werr {
			t.Fatalf("NaN level: (%d,%d,%v), reference (%d,%d,%v)", j, k, err, wj, wk, werr)
		}
	}
	ciMemo.RLock()
	after := len(ciMemo.m)
	ciMemo.RUnlock()
	if after != before {
		t.Errorf("NaN keys grew the memo from %d to %d entries", before, after)
	}
}

func TestMedianCIInPlaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(600)
		xs := make([]float64, n)
		// Small integer ranges force the ties distance samples carry.
		span := 1 + rng.Intn(50)
		for i := range xs {
			xs[i] = float64(rng.Intn(span)) / 8
		}
		level := []float64{0.9, 0.95, 0.98, 0.99}[trial%4]
		want, werr := medianCIRef(xs, level)
		got, err := MedianCIInPlace(slices.Clone(xs), level)
		if got != want || err != werr {
			t.Fatalf("trial %d (n=%d): %+v %v, reference %+v %v", trial, n, got, err, want, werr)
		}
	}
}

func TestSelectNth(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := []struct {
		name string
		at   func(i, n int) float64
	}{
		{"random", func(int, int) float64 { return float64(rng.Intn(1000)) }},
		{"ties", func(int, int) float64 { return float64(rng.Intn(3)) }},
		{"equal", func(int, int) float64 { return 7 }},
		{"sorted", func(i, _ int) float64 { return float64(i) }},
		{"reversed", func(i, n int) float64 { return float64(n - i) }},
		{"organ", func(i, n int) float64 { return float64(min(i, n-i)) }},
	}
	for _, shape := range shapes {
		name := shape.name
		for _, n := range []int{1, 2, 13, 100, 1001} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape.at(i, n)
			}
			sorted := SortedCopy(xs)
			for _, nth := range []int{0, n / 3, n / 2, n - 1} {
				ys := slices.Clone(xs)
				selectNth(ys, nth)
				if ys[nth] != sorted[nth] { //lint:allow floateq selection must return the exact sorted value
					t.Fatalf("%s n=%d nth=%d: got %v, want %v", name, n, nth, ys[nth], sorted[nth])
				}
				for i := range ys {
					if i < nth && ys[i] > ys[nth] || i > nth && ys[i] < ys[nth] {
						t.Fatalf("%s n=%d nth=%d: ys[%d]=%v on the wrong side of %v", name, n, nth, i, ys[i], ys[nth])
					}
				}
				if !slices.Equal(SortedCopy(ys), sorted) {
					t.Fatalf("%s n=%d nth=%d: selection is not a permutation", name, n, nth)
				}
			}
		}
	}
}
