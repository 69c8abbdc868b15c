package eval

// Scored drift detection: run the streaming pipeline with the drift
// detector over a scripted-incident corpus (hospital.DefaultIncidentSchedule)
// and score the emitted change points against the schedule's ground-truth
// change-point file — precision, recall and detection latency in buckets.
// This is the "moving landscape" experiment the batch evaluation cannot
// express: the paper's §6 names tracking model evolution over time as the
// motivation for daily mining, and the drift detector closes that loop.

import (
	"fmt"
	"sort"
	"strings"

	"logscape/internal/core/l3"
	"logscape/internal/drift"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
	"logscape/internal/stream"
)

// DriftOptions configures the scored drift-detection experiment.
type DriftOptions struct {
	// Seed drives topology and workload generation.
	Seed int64
	// Scale rescales the simulated volume (default 3). The stationary
	// workload spreads a day's sessions over 24 hours instead of the
	// diurnal curve's ~10 working hours, so the per-bucket citation volume
	// must be raised to keep dense keys dense (death eligibility) and the
	// per-bucket delay samples large enough for the KS channel to test.
	Scale float64
	// Days is the simulated period (default 6 — the default incident
	// schedule leads in with two quiet days, spans days 2–4 and detection
	// tails reach into day 5).
	Days int
	// BucketWidth and WindowBuckets set the streaming window geometry
	// (defaults: 1 h buckets, 24-bucket window).
	BucketWidth   logmodel.Millis
	WindowBuckets int
	// Detector configures the drift detector (zero fields take the
	// drift.DefaultConfig values).
	Detector drift.Config
	// MatchWindow is the maximum detection latency, in buckets, for an
	// alert to match a truth point (default 12 — a birth after an outage
	// needs the dependency to re-confirm for K consecutive buckets, which
	// for moderately dense keys can take half a day of hourly buckets).
	MatchWindow int64
	// WarmupBuckets is the detector burn-in: alerts in the first this-many
	// buckets of the stream are excluded from scoring, and the detector's
	// learning period (LearnBuckets) is aligned to it. Default 48 — the
	// two quiet lead-in days before the first scripted incident.
	WarmupBuckets int64
	// Workers bounds the L3 scan parallelism. Alerts are identical for
	// every setting.
	Workers int
}

// DefaultDriftOptions returns the calibrated experiment configuration.
func DefaultDriftOptions(seed int64) DriftOptions {
	return DriftOptions{
		Seed:          seed,
		Scale:         3,
		Days:          6,
		BucketWidth:   logmodel.MillisPerHour,
		WindowBuckets: 24,
		Detector:      drift.DefaultConfig(),
		MatchWindow:   12,
		WarmupBuckets: 48,
	}
}

func (o DriftOptions) withDefaults() DriftOptions {
	def := DefaultDriftOptions(o.Seed)
	if o.Scale == 0 {
		o.Scale = def.Scale
	}
	if o.Days == 0 {
		o.Days = def.Days
	}
	if o.BucketWidth == 0 {
		o.BucketWidth = def.BucketWidth
	}
	if o.WindowBuckets == 0 {
		o.WindowBuckets = def.WindowBuckets
	}
	if o.MatchWindow == 0 {
		o.MatchWindow = def.MatchWindow
	}
	if o.WarmupBuckets == 0 {
		o.WarmupBuckets = def.WarmupBuckets
	}
	return o
}

// DriftTruthScore is the scoring outcome for one ground-truth change point.
type DriftTruthScore struct {
	Truth hospital.TruthPoint `json:"truth"`
	// Bucket is the truth point's bucket index on the detector's grid.
	Bucket int64 `json:"bucket"`
	// Detected reports whether any alert matched; Latency is the earliest
	// matching alert's detection latency in buckets (-1 if undetected) and
	// MatchedKey that alert's key.
	Detected   bool   `json:"detected"`
	Latency    int64  `json:"latency_buckets"`
	MatchedKey string `json:"matched_key,omitempty"`
}

// DriftScorecard is the scored outcome of one drift experiment.
type DriftScorecard struct {
	Seed        int64           `json:"seed"`
	Days        int             `json:"days"`
	BucketWidth logmodel.Millis `json:"bucket_width"`
	// TotalAlerts counts every emitted alert; ScoredAlerts those after the
	// warm-up; MatchedAlerts the scored alerts matching some truth point.
	TotalAlerts   int `json:"total_alerts"`
	ScoredAlerts  int `json:"scored_alerts"`
	MatchedAlerts int `json:"matched_alerts"`
	// Precision is MatchedAlerts/ScoredAlerts (1 when nothing was scored);
	// Recall the fraction of truth points detected; MedianLatency the
	// median detection latency over detected truth points, in buckets.
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	MedianLatency float64 `json:"median_latency_buckets"`
	// TruthPoints holds the per-truth-point outcomes; FalseAlerts the
	// scored alerts that matched nothing.
	TruthPoints []DriftTruthScore   `json:"truth_points"`
	FalseAlerts []drift.ChangePoint `json:"false_alerts,omitempty"`
}

// RunDriftExperiment simulates the scripted-incident corpus, streams it
// through the L3 pipeline with drift detection on, and scores the alerts
// against the schedule's ground truth.
func RunDriftExperiment(opts DriftOptions) (*DriftScorecard, error) {
	opts = opts.withDefaults()
	alerts, truth, start, err := runDriftStream(opts, true)
	if err != nil {
		return nil, err
	}
	return scoreDrift(opts, start, truth, alerts), nil
}

// runDriftStream simulates the stationary corpus — with the scripted
// incident schedule or incident-free as a control — and streams it through
// the L3 pipeline with the drift detector attached, returning the emitted
// alerts, the ground-truth change points and the stream origin.
func runDriftStream(opts DriftOptions, withIncidents bool) (
	[]drift.ChangePoint, []hospital.TruthPoint, logmodel.Millis, error) {

	opts = opts.withDefaults()
	topo := hospital.GenerateTopology(hospital.DefaultTopologyConfig(), opts.Seed)
	simCfg := hospital.DefaultConfig(opts.Seed)
	simCfg.Scale = opts.Scale
	simCfg.Days = opts.Days
	// The scripted incidents are the ONLY change points: the workload is
	// generated stationary so the weekly and diurnal rhythms cannot mimic
	// births and deaths (an overnight lull of a sparse dependency is
	// indistinguishable from an outage at bucket scale).
	simCfg.Stationary = true
	if withIncidents {
		simCfg.Incidents = hospital.DefaultIncidentSchedule(topo, simCfg.Start)
		if len(simCfg.Incidents) == 0 {
			return nil, nil, 0, fmt.Errorf("eval: empty incident schedule for seed %d", opts.Seed)
		}
	}
	sim := hospital.NewSimulator(simCfg, topo)
	truth := sim.TruthPoints()

	owner := make(map[string]string, len(topo.Groups))
	for _, g := range topo.Groups {
		owner[g.ID] = g.Owner
	}
	l3cfg := l3.DefaultConfig()
	l3cfg.Stops = hospital.CanonicalStopPatterns()
	l3cfg.Owner = owner
	l3cfg.Workers = opts.Workers
	wcfg := stream.Config{BucketWidth: opts.BucketWidth, WindowBuckets: opts.WindowBuckets}
	miner := stream.NewL3(wcfg, l3.NewMiner(topo.Directory(), l3cfg))
	miner.TrackDrift(true)
	dcfg := opts.Detector
	if dcfg.LearnBuckets == 0 {
		// Keys first sighted before the scoring warm-up ends predate the
		// run: confirming them is catch-up, not drift.
		dcfg.LearnBuckets = int(opts.WarmupBuckets)
	}
	det := drift.NewDetector(dcfg)

	var alerts []drift.ChangePoint
	in := stream.NewIngester(wcfg, miner)
	in.OnAdvance = func(b stream.Bucket) {
		f := miner.DriftFeatures()
		alerts = append(alerts, det.Observe(drift.Observation{
			// Absolute bucket numbering (the grid is floor-aligned), so
			// truth bucket indices do not depend on the stream's origin.
			Bucket: int64(b.Range.Start / opts.BucketWidth),
			At:     b.Range.Start,
			Active: f.Active,
			Delays: f.Delays,
		})...)
	}
	for d := 0; d < opts.Days; d++ {
		store, _ := sim.GenerateDay(d)
		in.AddAll(store.Entries())
	}
	in.Flush()

	return alerts, truth, simCfg.Start, nil
}

// scoreDrift matches alerts against truth points: an alert matches a truth
// point when the kinds agree, the alert's key is one of the truth point's,
// and the alert fires within MatchWindow buckets at or after the truth
// bucket. Precision counts matched scored alerts; recall counts truth
// points with at least one match; latency is the earliest match per truth
// point.
func scoreDrift(opts DriftOptions, start logmodel.Millis,
	truth []hospital.TruthPoint, alerts []drift.ChangePoint) *DriftScorecard {

	sc := &DriftScorecard{
		Seed:          opts.Seed,
		Days:          opts.Days,
		BucketWidth:   opts.BucketWidth,
		TotalAlerts:   len(alerts),
		Precision:     1,
		MedianLatency: -1,
	}
	warmEnd := int64(start/opts.BucketWidth) + opts.WarmupBuckets
	var scored []drift.ChangePoint
	for _, a := range alerts {
		if a.Bucket >= warmEnd {
			scored = append(scored, a)
		}
	}
	sc.ScoredAlerts = len(scored)
	matched := make([]bool, len(scored))

	var latencies []int64
	for _, p := range truth {
		ts := DriftTruthScore{
			Truth:   p,
			Bucket:  int64(p.At / opts.BucketWidth),
			Latency: -1,
		}
		keys := make(map[string]bool, len(p.Keys))
		for _, k := range p.Keys {
			keys[k] = true
		}
		for i, a := range scored {
			lat := a.Bucket - ts.Bucket
			if string(a.Kind) != p.Kind || lat < 0 || lat > opts.MatchWindow || !keys[a.Key] {
				continue
			}
			matched[i] = true
			if !ts.Detected || lat < ts.Latency {
				ts.Detected, ts.Latency, ts.MatchedKey = true, lat, a.Key
			}
		}
		if ts.Detected {
			latencies = append(latencies, ts.Latency)
		}
		sc.TruthPoints = append(sc.TruthPoints, ts)
	}

	for i, a := range scored {
		if matched[i] {
			sc.MatchedAlerts++
		} else {
			sc.FalseAlerts = append(sc.FalseAlerts, a)
		}
	}
	if sc.ScoredAlerts > 0 {
		sc.Precision = float64(sc.MatchedAlerts) / float64(sc.ScoredAlerts)
	}
	if len(truth) > 0 {
		detected := 0
		for _, ts := range sc.TruthPoints {
			if ts.Detected {
				detected++
			}
		}
		sc.Recall = float64(detected) / float64(len(truth))
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		n := len(latencies)
		if n%2 == 1 {
			sc.MedianLatency = float64(latencies[n/2])
		} else {
			sc.MedianLatency = float64(latencies[n/2-1]+latencies[n/2]) / 2
		}
	}
	return sc
}

// String renders the scorecard as the report section body.
func (sc *DriftScorecard) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scripted-incident drift detection (seed %d, %d days, %v buckets)\n",
		sc.Seed, sc.Days, sc.BucketWidth)
	fmt.Fprintf(&b, "alerts: %d total, %d scored after warm-up, %d matched\n",
		sc.TotalAlerts, sc.ScoredAlerts, sc.MatchedAlerts)
	fmt.Fprintf(&b, "precision %.3f  recall %.3f  median latency %.1f buckets\n\n",
		sc.Precision, sc.Recall, sc.MedianLatency)
	for _, ts := range sc.TruthPoints {
		status := "missed"
		if ts.Detected {
			status = fmt.Sprintf("detected +%d via %s", ts.Latency, ts.MatchedKey)
		}
		fmt.Fprintf(&b, "  %-11s %-12s bucket %-6d (%d keys) %s\n",
			ts.Truth.Incident, ts.Truth.Kind, ts.Bucket, len(ts.Truth.Keys), status)
	}
	for _, a := range sc.FalseAlerts {
		fmt.Fprintf(&b, "  false alert: %s\n", a)
	}
	return b.String()
}
