package main

// The traced run composes the follow engine from the exported APIs of its
// layers, in the order follow.Run calls them, and records a span around
// every call into a layer. Its outputs must be byte-equal to follow.Run's
// on the same input (checked by every traced pass), so the spans attribute
// the time of exactly the work the untraced run does.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"logscape/internal/core"
	"logscape/internal/core/l1"
	"logscape/internal/core/l2"
	"logscape/internal/core/l3"
	"logscape/internal/directory"
	"logscape/internal/drift"
	"logscape/internal/follow"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
	"logscape/internal/modelstore"
	"logscape/internal/obs"
	"logscape/internal/sessions"
	"logscape/internal/stream"
)

// span is one timed call. Spans are kept in memory and summarized when
// the pass ends.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// tracer records the spans of one engine run. The engine calls into its
// layers from one goroutine, so the open spans form a stack.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	counts map[string]int64 // byte counts taken at the same boundaries
	// reg is handed to the engine as Config.Metrics, for the counters the
	// layers already keep.
	reg *obs.Registry
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}, reg: obs.New()}
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// busyMS returns the summed duration of the spans named name.
func (t *tracer) busyMS(name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return float64(d.Nanoseconds()) / 1e6
}

// durationsMS returns every duration of the spans named name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64((s.end-s.start).Nanoseconds())/1e6)
		}
	}
	return out
}

// selfMS returns the summed self time of the spans named name: each
// span's duration minus the durations of its direct children.
func (t *tracer) selfMS(name string) float64 {
	var d time.Duration
	for i, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
			for _, c := range t.spans[i+1:] {
				if c.parent == i {
					d -= c.end - c.start
				}
			}
		}
	}
	return float64(d.Nanoseconds()) / 1e6
}

// tracedMiner spans the miner's Advance calls that the ingester makes
// while feeding; replays during a checkpoint restore stay inside the
// restore span.
type tracedMiner struct {
	stream.Miner
	tr   *tracer
	name string // "<method>.advance"
	live bool
}

func (m *tracedMiner) Advance(b stream.Bucket) {
	if !m.live {
		m.Miner.Advance(b)
		return
	}
	id := m.tr.begin(m.name)
	m.Miner.Advance(b)
	m.tr.end(id)
}

// tracedReader spans every transport read and ends the set-up span at
// the first one.
type tracedReader struct {
	r     io.Reader
	tr    *tracer
	setup int // open set-up span, -1 once closed
}

func (r *tracedReader) Read(p []byte) (int, error) {
	if r.setup >= 0 {
		r.tr.end(r.setup)
		r.setup = -1
		r.tr.begin("stream.feed")
	}
	id := r.tr.begin("stream.read")
	n, err := r.r.Read(p)
	r.tr.end(id)
	r.tr.counts["stream.read.bytes"] += int64(n)
	return n, err
}

// stopReader turns a raised stop into end of stream, as follow.Run does.
type stopReader struct {
	r    io.Reader
	stop func() bool
}

func (s *stopReader) Read(p []byte) (int, error) {
	if s.stop() {
		return 0, io.EOF
	}
	return s.r.Read(p)
}

// buildMiner constructs the streaming miner follow.Run builds for cfg.
func buildMiner(cfg follow.Config, wcfg stream.Config) (stream.Miner, error) {
	switch cfg.Method {
	case "l1":
		c := l1.DefaultConfig()
		c.MinLogs = cfg.MinLogs
		c.Workers = cfg.Workers
		c.Metrics = cfg.Metrics
		return stream.NewL1(wcfg, c), nil
	case "l2":
		c := l2.DefaultConfig()
		c.Timeout = logmodel.SecondsToMillis(cfg.TimeoutSec)
		if cfg.TimeoutSec == 0 {
			c.Timeout = l2.NoTimeout
		}
		c.Workers = cfg.Workers
		c.Metrics = cfg.Metrics
		return stream.NewL2(wcfg, sessions.Config{Metrics: cfg.Metrics}, c), nil
	case "l3":
		df, err := os.Open(cfg.DirPath)
		if err != nil {
			return nil, err
		}
		dir, err := directory.Read(df)
		df.Close()
		if err != nil {
			return nil, err
		}
		c := l3.DefaultConfig()
		c.Workers = cfg.Workers
		c.Metrics = cfg.Metrics
		if !cfg.NoStops {
			c.Stops = hospital.CanonicalStopPatterns()
		}
		return stream.NewL3(wcfg, l3.NewMiner(dir, c)), nil
	}
	return nil, fmt.Errorf("unsupported method %q", cfg.Method)
}

// windowConfig is the stream configuration follow.Run derives from cfg.
func windowConfig(cfg follow.Config) stream.Config {
	return stream.Config{
		BucketWidth:    logmodel.SecondsToMillis(cfg.BucketSec),
		WindowBuckets:  cfg.WindowBuckets,
		Workers:        cfg.Workers,
		Metrics:        cfg.Metrics,
		RecycleBuckets: true,
	}
}

// deltaPrinter renders follow.Run's per-bucket stderr delta line.
type deltaPrinter struct {
	w         io.Writer
	deps      bool
	prevPairs core.PairSet
	prevDeps  core.AppServiceSet
}

func (d *deltaPrinter) print(r logmodel.TimeRange, snap core.ModelDocument) {
	stamp := func(m logmodel.Millis) string {
		return m.Time().Format("2006-01-02T15:04:05")
	}
	if d.deps {
		cur := snap.DepSet()
		gone, born := core.DiffDeps(d.prevDeps, cur)
		fmt.Fprintf(d.w, "window [%s .. %s): %d deps", stamp(r.Start), stamp(r.End), len(cur))
		for _, dep := range born {
			fmt.Fprintf(d.w, " +%s->%s", dep.App, dep.Group)
		}
		for _, dep := range gone {
			fmt.Fprintf(d.w, " -%s->%s", dep.App, dep.Group)
		}
		fmt.Fprintln(d.w)
		d.prevDeps = cur
		return
	}
	cur := snap.PairSet()
	gone, born := core.DiffModels(d.prevPairs, cur)
	fmt.Fprintf(d.w, "window [%s .. %s): %d pairs", stamp(r.Start), stamp(r.End), len(cur))
	for _, p := range born {
		fmt.Fprintf(d.w, " +%s--%s", p.A, p.B)
	}
	for _, p := range gone {
		fmt.Fprintf(d.w, " -%s--%s", p.A, p.B)
	}
	fmt.Fprintln(d.w)
	d.prevPairs = cur
}

// composedRun is follow.Run for a plain-file source, composed from the
// layers' exported APIs with a span around each call. It supports the
// configurations the benchmark's workloads use.
func composedRun(cfg follow.Config, stdout, stderr io.Writer, tr *tracer) (follow.Result, error) {
	var res follow.Result
	setup := tr.begin("engine.setup")
	wcfg := windowConfig(cfg)
	inner, err := buildMiner(cfg, wcfg)
	if err != nil {
		return res, err
	}
	miner := &tracedMiner{Miner: inner, tr: tr, name: cfg.Method + ".advance"}
	var fsrc stream.FeatureSource
	if fs, ok := inner.(stream.FeatureSource); ok && (cfg.Drift || cfg.StorePath != "") {
		fs.TrackDrift(true)
		fsrc = fs
	}

	var store *modelstore.Store
	if cfg.StorePath != "" {
		id := tr.begin("modelstore.open")
		store, err = modelstore.Open(cfg.StorePath, modelstore.Config{
			BucketWidth:   wcfg.BucketWidth,
			WindowBuckets: wcfg.WindowBuckets,
			Metrics:       cfg.Metrics,
		})
		tr.end(id)
		if err != nil {
			return res, err
		}
	}
	var cp *stream.Checkpoint
	if cfg.ResumePath != "" {
		id := tr.begin("stream.restore")
		cp, err = stream.ReadCheckpointFile(cfg.ResumePath)
		tr.end(id)
		if err != nil {
			return res, err
		}
	}
	if cp != nil && cp.WindowInStore {
		if store == nil {
			return res, fmt.Errorf("checkpoint %s needs a store", cfg.ResumePath)
		}
		id := tr.begin("modelstore.hydrate")
		err := store.Hydrate(cp)
		tr.end(id)
		if err != nil {
			return res, fmt.Errorf("resume: %w", err)
		}
	}
	if cp == nil && store != nil && !store.Empty() {
		return res, fmt.Errorf("store %s holds segments but no checkpoint was found", cfg.StorePath)
	}
	var in *stream.Ingester
	var det *drift.Detector
	id := tr.begin("stream.restore")
	if cp != nil {
		in, err = cp.Restore(wcfg, miner)
	} else {
		in = stream.NewIngester(wcfg, miner)
	}
	if err == nil && cfg.Drift {
		dcfg := drift.Config{Metrics: cfg.Metrics}
		if cp != nil && len(cp.Drift) > 0 {
			det, err = drift.Restore(dcfg, cp.Drift)
		} else {
			det = drift.NewDetector(dcfg)
		}
	}
	tr.end(id)
	if err != nil {
		return res, fmt.Errorf("resume: %w", err)
	}
	miner.live = true
	fcfg := stream.FeederConfig{Metrics: cfg.Metrics}
	if cfg.QuarantinePath != "" {
		qf, err := os.OpenFile(cfg.QuarantinePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return res, err
		}
		defer qf.Close()
		fcfg.Quarantine = qf
	}
	feeder := stream.NewFeeder(in, fcfg)
	tl, err := stream.NewTailer(cfg.Source, stream.TailerConfig{Wait: cfg.Wait, Metrics: cfg.Metrics})
	if err != nil {
		return res, err
	}
	defer tl.Close()
	var base int64
	if cp != nil {
		base = cp.Offset
		if err := tl.SeekTo(cp.Offset); err != nil {
			return res, fmt.Errorf("resume: %w", err)
		}
	}
	delta := &deltaPrinter{w: stderr, deps: cfg.Method == "l3"}
	if cp != nil {
		snap := inner.Snapshot()
		if delta.deps {
			delta.prevDeps = snap.DepSet()
		} else {
			delta.prevPairs = snap.PairSet()
		}
	}

	var emitErr error
	in.OnAdvance = func(b stream.Bucket) {
		if emitErr != nil {
			return
		}
		emit := tr.begin("follow.emit")
		defer tr.end(emit)
		id := tr.begin(cfg.Method + ".snapshot")
		snap := inner.Snapshot()
		tr.end(id)
		id = tr.begin("follow.render")
		var doc bytes.Buffer
		err := core.WriteModel(&doc, snap)
		if err == nil {
			_, err = stdout.Write(doc.Bytes())
		}
		tr.end(id)
		if err != nil {
			emitErr = err
			return
		}
		var feats stream.DriftFeatures
		if fsrc != nil {
			feats = fsrc.DriftFeatures()
		}
		if store != nil {
			id := tr.begin("modelstore.append")
			rec := modelstore.Record{Bucket: b.Index, Range: b.Range, Model: doc.Bytes()}
			for _, e := range b.Entries {
				rec.Evidence = append(rec.Evidence, logmodel.AppendEntry(nil, e))
			}
			keys := make([]string, 0, len(feats.Scores))
			for k := range feats.Scores {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				rec.Scores = append(rec.Scores, modelstore.Score{Key: k, Value: feats.Scores[k]})
			}
			err := store.Append(rec)
			tr.end(id)
			if err != nil {
				emitErr = err
				return
			}
		}
		id = tr.begin("follow.render")
		delta.print(in.WindowRange(), snap)
		tr.end(id)
		if det != nil {
			id := tr.begin("drift.observe")
			for _, c := range det.Observe(drift.Observation{
				Bucket: b.Index, At: b.Range.Start,
				Active: feats.Active, Scores: feats.Scores, Delays: feats.Delays,
			}) {
				if store != nil {
					ref, ok, err := store.Locate(c.At)
					if err != nil {
						emitErr = err
						break
					}
					if ok {
						c.Segment = ref.String()
					}
				}
				fmt.Fprintln(stderr, c)
			}
			tr.end(id)
			if emitErr != nil {
				return
			}
		}
		if cfg.ResumePath != "" {
			id := tr.begin("stream.checkpoint")
			var next *stream.Checkpoint
			if store != nil {
				next = in.CheckpointLight(base+feeder.Consumed(), tl.Rotations())
			} else {
				next = in.Checkpoint(base+feeder.Consumed(), tl.Rotations())
			}
			if det != nil {
				sid := tr.begin("drift.state")
				blob, err := det.State()
				tr.end(sid)
				if err != nil {
					tr.end(id)
					emitErr = fmt.Errorf("serializing drift state: %w", err)
					return
				}
				next.Drift = blob
			}
			err := stream.WriteCheckpointFile(cfg.ResumePath, next)
			tr.end(id)
			if err != nil {
				emitErr = fmt.Errorf("writing checkpoint: %w", err)
			} else if fi, err := os.Stat(cfg.ResumePath); err == nil {
				tr.counts["stream.checkpoint.bytes"] += fi.Size()
			}
		}
		if cfg.Progress != nil {
			s := in.Stats()
			cfg.Progress(follow.Progress{
				Buckets: s.Buckets, Consumed: base + feeder.Consumed(),
				LastIndex: b.Index, WindowEnd: b.Range.End,
			})
		}
	}

	rd := &tracedReader{tr: tr, setup: setup,
		r: stream.NewRetryReader(tl, stream.RetryPolicy{MaxRetries: 8, Backoff: cfg.Backoff}, cfg.Metrics)}
	var r io.Reader = rd
	if cfg.Stop != nil {
		r = &stopReader{r: rd, stop: cfg.Stop}
	}
	err = feeder.Run(r)
	if rd.setup < 0 {
		tr.end(tr.open[len(tr.open)-1]) // stream.feed
	} else {
		tr.end(setup)
	}
	if err != nil {
		return res, err
	}
	fill := func() {
		res.Ingest = in.Stats()
		res.Feed = feeder.Stats()
		res.Rotations = tl.Rotations()
	}
	if cfg.Stop != nil && cfg.Stop() {
		res.Stopped = true
		fill()
		return res, emitErr
	}
	id = tr.begin("stream.flush")
	in.Flush()
	tr.end(id)
	fill()
	return res, emitErr
}
