package pointproc

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"logscape/internal/logmodel"
)

// Differential tests of the buffer-reusing subsample and the distance
// samples against the map-based and binary-search code they replaced.

// subsampleRef is Floyd's algorithm over a map of chosen indices, sorted
// afterwards: the same draws as Subsampler.Subsample, in the same order.
func subsampleRef(rng *rand.Rand, a []logmodel.Millis, n int) []logmodel.Millis {
	if n <= 0 {
		return nil
	}
	if len(a) <= n {
		return a
	}
	chosen := make(map[int]bool, n)
	for j := len(a) - n; j < len(a); j++ {
		k := rng.Intn(j + 1)
		if chosen[k] {
			chosen[j] = true
		} else {
			chosen[k] = true
		}
	}
	idx := make([]int, 0, n)
	for k := range chosen {
		idx = append(idx, k)
	}
	sort.Ints(idx)
	out := make([]logmodel.Millis, n)
	for i, k := range idx {
		out[i] = a[k]
	}
	return out
}

// distanceSampleRef locates every point by binary search.
func distanceSampleRef(points, a []logmodel.Millis,
	dist func(logmodel.Millis, []logmodel.Millis) logmodel.Millis) []float64 {
	out := make([]float64, 0, len(points))
	for _, p := range points {
		d := dist(p, a)
		if d == logmodel.Millis(math.MaxInt64) {
			continue
		}
		out = append(out, d.Seconds())
	}
	return out
}

// randomSorted draws n sorted timestamps in [0, span), with duplicates
// when span is small.
func randomSorted(rng *rand.Rand, n int, span int64) []logmodel.Millis {
	out := make([]logmodel.Millis, n)
	for i := range out {
		out[i] = logmodel.Millis(rng.Int63n(span))
	}
	slices.Sort(out)
	return out
}

func TestSubsamplerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var s Subsampler // reused across trials, as the slot test does
	for trial := 0; trial < 3000; trial++ {
		a := randomSorted(rng, rng.Intn(3000), 1+rng.Int63n(10000))
		n := rng.Intn(500)
		seed := rng.Int63()
		ref := rand.New(rand.NewSource(seed))
		want := subsampleRef(ref, a, n)
		r := rand.New(rand.NewSource(seed))
		got := s.Subsample(r, a, n)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (len(a)=%d, n=%d): subsample differs from the reference", trial, len(a), n)
		}
		// Same number of draws: the generators must stay in step.
		if r.Int63() != ref.Int63() {
			t.Fatalf("trial %d: generator out of step with the reference", trial)
		}
	}
}

func TestDistancesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 3000; trial++ {
		span := 1 + rng.Int63n(5000)
		a := randomSorted(rng, rng.Intn(300), span)
		sorted := randomSorted(rng, rng.Intn(300), span+100)
		unsorted := slices.Clone(sorted)
		rng.Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })
		for _, next := range []bool{false, true} {
			dist := DistNearest
			if next {
				dist = DistNext
			}
			if got, want := AppendDistances(nil, unsorted, a, next), distanceSampleRef(unsorted, a, dist); !slices.Equal(got, want) {
				t.Fatalf("trial %d next=%v: binary-search distances differ from the reference", trial, next)
			}
			if got, want := AppendSortedDistances(nil, sorted, a, next), distanceSampleRef(sorted, a, dist); !slices.Equal(got, want) {
				t.Fatalf("trial %d next=%v: merge-walk distances differ from the reference", trial, next)
			}
		}
	}
}
