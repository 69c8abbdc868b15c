package l1

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"logscape/internal/core"
	"logscape/internal/logmodel"
	"logscape/internal/pointproc"
	"logscape/internal/stats"
)

// A differential test of the pooled, selection-based slot test against the
// code it replaced: fresh buffers for every test, a map-based subsample,
// binary search for every distance and a full sort before each interval.

// pairSeedRef is pairSeed written with hash/fnv.
func pairSeedRef(base int64, slotStart logmodel.Millis, p core.Pair) int64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(base))
	binary.LittleEndian.PutUint64(buf[8:], uint64(slotStart))
	h.Write(buf[:])
	io.WriteString(h, p.A)
	h.Write([]byte{0})
	io.WriteString(h, p.B)
	return int64(h.Sum64())
}

func uniformPointsRef(rng *rand.Rand, r logmodel.TimeRange, n int) []logmodel.Millis {
	d := int64(r.Duration())
	if d <= 0 || n <= 0 {
		return nil
	}
	out := make([]logmodel.Millis, n)
	for i := range out {
		out[i] = r.Start + logmodel.Millis(rng.Int63n(d))
	}
	return out
}

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

func distanceSampleRef(points, a []logmodel.Millis,
	dist func(logmodel.Millis, []logmodel.Millis) logmodel.Millis) []float64 {
	out := make([]float64, 0, len(points))
	for _, p := range points {
		if d := dist(p, a); d != logmodel.Millis(math.MaxInt64) {
			out = append(out, d.Seconds())
		}
	}
	return out
}

func directionTestRef(rng *rand.Rand, a, b, total []logmodel.Millis, slot logmodel.TimeRange, cfg Config) DirectionResult {
	cfg = cfg.withDefaults()
	dist := pointproc.DistNearest
	if cfg.Distance == DistNext {
		dist = pointproc.DistNext
	}
	var random []logmodel.Millis
	if cfg.Reference == RefTotalActivity && len(total) > 0 {
		random = appendJittered(nil, rng, total, slot, cfg.SampleSize, cfg.ReferenceJitter)
	} else {
		random = uniformPointsRef(rng, slot, cfg.SampleSize)
	}
	sub := subsampleRef(rng, b, cfg.SampleSize)
	sr := distanceSampleRef(random, a, dist)
	sb := distanceSampleRef(sub, a, dist)
	sort.Float64s(sr)
	sort.Float64s(sb)
	res := DirectionResult{RandomSample: sr, CandidateSample: sb}
	ciFor := func(sorted []float64) (stats.CI, error) {
		if cfg.Statistic == StatMean {
			return stats.MeanCI(sorted, cfg.Level)
		}
		return stats.MedianCI(sorted, cfg.Level)
	}
	ciR, errR := ciFor(sr)
	ciB, errB := ciFor(sb)
	if errR != nil || errB != nil {
		return res
	}
	res.RandomCI, res.CandidateCI = ciR, ciB
	res.Valid = true
	res.Positive = ciB.Below(ciR)
	res.Farther = ciR.Below(ciB)
	return res
}

func slotTestRef(rng *rand.Rand, a, b, total []logmodel.Millis, slot logmodel.TimeRange, cfg Config) bool {
	cfg = cfg.withDefaults()
	d1 := directionTestRef(rng, b, a, total, slot, cfg)
	if !d1.Valid || !(d1.Positive || cfg.TwoSided && d1.Farther) {
		return false
	}
	d2 := directionTestRef(rng, a, b, total, slot, cfg)
	return d2.Valid && (d2.Positive || cfg.TwoSided && d2.Farther)
}

// refSequence draws one of the input shapes the slot test meets: empty,
// sparse (below the interval's minimum sample), a Poisson stream, or a
// stream trailing base by a short latency (a dependent pair).
func refSequence(rng *rand.Rand, slot logmodel.TimeRange, base []logmodel.Millis) []logmodel.Millis {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return pointproc.Homogeneous(rng, slot, 0.002) // a handful of points
	case 2:
		if len(base) > 0 {
			out := make([]logmodel.Millis, 0, len(base))
			for _, t := range base {
				if t += logmodel.Millis(10 + rng.Intn(50)); t < slot.End {
					out = append(out, t)
				}
			}
			slices.Sort(out) // the slot test takes sorted sequences
			return out
		}
	}
	return pointproc.Homogeneous(rng, slot, 0.01+rng.Float64()*0.5)
}

func TestSlotTestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	slot := logmodel.TimeRange{Start: 7 * logmodel.MillisPerHour, End: 8 * logmodel.MillisPerHour}
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	positives := 0
	for trial := 0; trial < trials; trial++ {
		cfg := Config{
			Distance:   DistanceKind(rng.Intn(2)),
			Reference:  ReferenceKind(rng.Intn(2)),
			Statistic:  StatisticKind(rng.Intn(2)),
			TwoSided:   rng.Intn(2) == 0,
			SampleSize: []int{0, 5, 60, 400, 1000}[rng.Intn(5)],
			Level:      []float64{0, 0.9, 0.95, 0.98, 0.99}[rng.Intn(5)],
		}
		a := refSequence(rng, slot, nil)
		b := refSequence(rng, slot, a)
		total := pointproc.MergeSorted(a, b)
		seed := rng.Int63()

		want := slotTestRef(rand.New(rand.NewSource(seed)), a, b, total, slot, cfg)
		if got := SlotTestRef(rand.New(rand.NewSource(seed)), a, b, total, slot, cfg); got != want {
			t.Fatalf("trial %d %+v (|a|=%d, |b|=%d): SlotTestRef = %v, reference %v",
				trial, cfg, len(a), len(b), got, want)
		}
		if want {
			positives++
		}
		wantDir := directionTestRef(rand.New(rand.NewSource(seed)), a, b, total, slot, cfg)
		got := DirectionTestRef(rand.New(rand.NewSource(seed)), a, b, total, slot, cfg)
		if !slices.Equal(got.RandomSample, wantDir.RandomSample) || !slices.Equal(got.CandidateSample, wantDir.CandidateSample) {
			t.Fatalf("trial %d %+v: DirectionTestRef samples differ from the reference", trial, cfg)
		}
		got.RandomSample, got.CandidateSample = nil, nil
		wantDir.RandomSample, wantDir.CandidateSample = nil, nil
		if !reflect.DeepEqual(got, wantDir) {
			t.Fatalf("trial %d %+v: DirectionTestRef = %+v, reference %+v", trial, cfg, got, wantDir)
		}
	}
	if positives == 0 {
		t.Error("no positive slot in any trial: the comparison never reached the positive branch")
	}
}

// TestSlotOutcomesMatchReference runs the pooled SlotOutcomes path (the
// generator reseeded per pair) against fresh per-pair generators.
func TestSlotOutcomesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	slot := logmodel.TimeRange{Start: 3 * logmodel.MillisPerHour, End: 4 * logmodel.MillisPerHour}
	seqs := map[string][]logmodel.Millis{}
	base := pointproc.Homogeneous(rng, slot, 0.3)
	for _, s := range []string{"A", "B", "C", "D", "E"} {
		seqs[s] = refSequence(rng, slot, base)
	}
	entries := buildStore(seqs).Entries()
	compared := 0
	for _, cfg := range []Config{{MinLogs: 3}, {MinLogs: 3, Reference: RefTotalActivity, Workers: 4, Seed: 9}} {
		cfg = cfg.withDefaults()
		total := make([]logmodel.Millis, len(entries))
		for i := range entries {
			total[i] = entries[i].Time
		}
		if cfg.Reference != RefTotalActivity {
			total = nil
		}
		for _, o := range SlotOutcomes(entries, slot, nil, cfg) {
			p := o.Pair
			want := slotTestRef(rand.New(rand.NewSource(pairSeedRef(cfg.Seed, slot.Start, p))),
				seqs[p.A], seqs[p.B], total, slot, cfg)
			if o.Positive != want {
				t.Errorf("%+v pair %v: outcome %v, reference %v", cfg.Reference, p, o.Positive, want)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Error("no eligible pair: nothing was compared")
	}
}

func TestPairSeedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	names := []string{"", "A", "AdmissionDesk", "ResourcePlanner", "Lab\x00", "ÄÖ"}
	for trial := 0; trial < 1000; trial++ {
		p := core.Pair{A: names[rng.Intn(len(names))], B: names[rng.Intn(len(names))]}
		base, start := rng.Int63()-rng.Int63(), logmodel.Millis(rng.Int63()-rng.Int63())
		if got, want := pairSeed(base, start, p), pairSeedRef(base, start, p); got != want {
			t.Fatalf("pairSeed(%d, %d, %v) = %d, reference %d", base, start, p, got, want)
		}
	}
}
