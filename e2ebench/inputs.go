package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"logscape/internal/core"
	"logscape/internal/drift"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
)

// input is one generated workload input: a time-ordered log file in the
// wire format and the service directory l3 needs. The program under test
// sees only these files.
type input struct {
	log     string // log file path
	dirXML  string // service-directory path
	entries int    // entries in the log file
	days    int
	// dayOffsets holds, for each day, a byte offset in the log file
	// before which no entry of that day or a later one is written.
	dayOffsets []int64
	start      logmodel.Millis // midnight of day 0
	// pairKeys and depKeys are the ground-truth model keys in trajectory
	// query form (drift.PairKey, drift.DepKey).
	pairKeys, depKeys []string
}

// topologySeed fixes the simulated hospital: the seed of cmd/loggen's
// default week, whose volumes are calibrated against the paper. The
// workload seed varies the traffic over it, not the system that logs it,
// so runs under different seeds measure the same mining problem.
const topologySeed = 2005

// holdBack bounds how far before midnight the next day's entries can
// fall once host clock skew (at most a second) is applied.
const holdBack = logmodel.MillisPerHour

// genInput simulates days of the hospital workload at scale from seed and
// writes it under dir.
func genInput(dir string, seed int64, scale float64, days int) (*input, error) {
	topo := hospital.GenerateTopology(hospital.DefaultTopologyConfig(), topologySeed)
	cfg := hospital.DefaultConfig(seed)
	cfg.Scale = scale
	cfg.Days = days
	sim := hospital.NewSimulator(cfg, topo)
	in := &input{
		log:    filepath.Join(dir, "input.log"),
		dirXML: filepath.Join(dir, "directory.xml"),
		days:   days,
		start:  sim.DayRange(0).Start,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	df, err := os.Create(in.dirXML)
	if err != nil {
		return nil, err
	}
	if err := topo.Directory().Write(df); err != nil {
		df.Close()
		return nil, err
	}
	if err := df.Close(); err != nil {
		return nil, err
	}
	f, err := os.Create(in.log)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	cw := &countingWriter{w: w}
	lw := logmodel.NewWriter(cw)
	// Each simulated day is sorted, but host clock skew moves entries
	// across midnight, so days are merged rather than concatenated: the
	// entries of a day within holdBack of its end wait for the next day.
	pending := logmodel.NewStore(0)
	last := logmodel.Millis(math.MinInt64)
	for d := 0; d < days; d++ {
		store, _ := sim.GenerateDay(d)
		merged := logmodel.Merge(pending, store)
		cut := logmodel.Millis(math.MaxInt64)
		if d+1 < days {
			cut = sim.DayRange(d+1).Start - holdBack
		}
		if err := lw.Flush(); err != nil {
			f.Close()
			return nil, err
		}
		in.dayOffsets = append(in.dayOffsets, cw.n)
		es := merged.Entries()
		i := 0
		for ; i < len(es) && es[i].Time < cut; i++ {
			if es[i].Time < last {
				f.Close()
				return nil, fmt.Errorf("seed %d: day %d starts before the previous day's last entry", seed, d)
			}
			last = es[i].Time
			if err := lw.Write(es[i]); err != nil {
				f.Close()
				return nil, err
			}
		}
		pending = logmodel.NewStore(len(es) - i)
		pending.AppendAll(es[i:])
	}
	in.entries = lw.Count()
	if err := lw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	for _, p := range core.PairSet(topo.TrueAppPairs()).SortedPairs() {
		in.pairKeys = append(in.pairKeys, drift.PairKey(p.A, p.B))
	}
	for _, d := range core.AppServiceSet(topo.TrueAppServicePairs()).SortedPairs() {
		in.depKeys = append(in.depKeys, drift.DepKey(d.App, d.Group))
	}
	if in.entries == 0 || len(in.pairKeys) == 0 || len(in.depKeys) == 0 {
		return nil, fmt.Errorf("seed %d generated an empty workload", seed)
	}
	return in, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// buckets returns the number of one-hour buckets the input spans.
func (in *input) buckets() int { return in.days * 24 }

// windowStore reads the input entries inside r back from the log file:
// the corpus a batch miner mines to check a streaming window.
func (in *input) windowStore(r logmodel.TimeRange) (*logmodel.Store, error) {
	f, err := os.Open(in.log)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Start at the last day that begins at or before r: the file is in
	// time order.
	var off int64
	for d, o := range in.dayOffsets {
		if in.start+logmodel.Millis(d)*logmodel.MillisPerDay <= r.Start {
			off = o
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	rd := logmodel.NewReader(f)
	s := logmodel.NewStore(0)
	for {
		e, err := rd.Read()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		if r.Contains(e.Time) {
			s.Append(e)
		}
	}
}

// rng returns the workload's seeded generator for one purpose, so each
// purpose draws the same sequence whatever the others draw.
func (e *env) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1000 + purpose))
}
