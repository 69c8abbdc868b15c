package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"logscape/internal/core"
	"logscape/internal/follow"
	"logscape/internal/logmodel"
)

// legSpec is one engine run of a pass. Legs with the same stem share
// their output files, checkpoint and store: a second leg resumes the
// first.
type legSpec struct {
	stem    string
	cfg     follow.Config
	persist bool // checkpoint and store under the pass directory
	stopAt  int  // hard stop once this many buckets are delivered; 0 runs to the end
}

// probeRounds is the number of extra set-up-only engine starts per leg and
// pass: set-up is short, so each pass measures it several times.
const probeRounds = 8

// hooks observe an untraced follow.Run from outside through its public
// config: Stop is polled before every source read, Progress is called
// after every delivered bucket.
type hooks struct {
	start     time.Time
	firstRead time.Time
	lastRead  time.Time
	lastEmit  time.Time
	buckets   int
	windowEnd logmodel.Millis
	stopAt    int  // raise Stop once this many buckets are delivered
	setupOnly bool // raise Stop at the first read
	rec       *recorder
	pass      *pass
}

func (h *hooks) stop() bool {
	now := time.Now()
	if h.firstRead.IsZero() {
		h.firstRead = now
	}
	h.lastRead = now
	return h.setupOnly || (h.stopAt > 0 && h.buckets >= h.stopAt)
}

func (h *hooks) progress(p follow.Progress) {
	now := time.Now()
	if h.rec != nil {
		if !h.lastEmit.IsZero() {
			h.rec.bucketMS = append(h.rec.bucketMS, float64(now.Sub(h.lastEmit).Nanoseconds())/1e6)
		}
		// The bucket's model was due when the read that carried its
		// closing line started.
		h.rec.queryMS = append(h.rec.queryMS, float64(now.Sub(h.lastRead).Nanoseconds())/1e6)
		h.pass.sampleHeap()
	}
	h.lastEmit = now
	h.buckets = p.Buckets
	h.windowEnd = p.WindowEnd
}

// legConfig fills the leg's per-pass paths.
func (l legSpec) config(dir string) follow.Config {
	cfg := l.cfg
	if l.persist {
		cfg.ResumePath = filepath.Join(dir, l.stem+".ckpt")
		cfg.StorePath = filepath.Join(dir, l.stem+".store")
	}
	return cfg
}

// legRun is what one leg reports.
type legRun struct {
	setup, wall time.Duration
	res         follow.Result
	windowEnd   logmodel.Millis
}

// runLeg runs one leg into dir: through follow.Run, or through the
// composed engine when tr is non-nil. rec and p, when non-nil, receive the
// leg's bucket samples.
func runLeg(l legSpec, dir string, tr *tracer, rec *recorder, p *pass) (legRun, error) {
	cfg := l.config(dir)
	out, err := os.OpenFile(filepath.Join(dir, l.stem+".out"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return legRun{}, err
	}
	defer out.Close()
	errw, err := os.OpenFile(filepath.Join(dir, l.stem+".err"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return legRun{}, err
	}
	defer errw.Close()
	h := &hooks{stopAt: l.stopAt, rec: rec, pass: p}
	cfg.Stop, cfg.Progress = h.stop, h.progress
	h.start = time.Now()
	var res follow.Result
	if tr != nil {
		cfg.Metrics = tr.reg
		res, err = composedRun(cfg, out, errw, tr)
	} else {
		res, err = follow.Run(cfg, out, errw)
	}
	run := legRun{wall: time.Since(h.start), res: res, setup: h.firstRead.Sub(h.start), windowEnd: h.windowEnd}
	if err != nil {
		return run, fmt.Errorf("%s leg: %w", l.stem, err)
	}
	if res.Stopped != (l.stopAt > 0) {
		return run, fmt.Errorf("%s leg: stopped=%v, want %v", l.stem, res.Stopped, l.stopAt > 0)
	}
	if err := out.Close(); err != nil {
		return run, err
	}
	return run, errw.Close()
}

// probeSetup starts the leg's engine over dir's current state and stops it
// at the first source read, returning the set-up time. An engine stopped
// before its first bucket writes no output.
func probeSetup(l legSpec, dir string) (time.Duration, error) {
	cfg := l.config(dir)
	h := &hooks{setupOnly: true}
	cfg.Stop = h.stop
	h.start = time.Now()
	res, err := follow.Run(cfg, io.Discard, io.Discard)
	if err == nil && !res.Stopped {
		err = fmt.Errorf("set-up probe ran past its first read")
	}
	return h.firstRead.Sub(h.start), err
}

// followPass runs the legs into dir and returns their summed engine time.
// An untraced pass (tr nil) also records the end-to-end samples: bucket
// intervals and model waits, one set-up sample per round (the legs' set-up
// times summed), and the pass's wall, allocation and write figures.
func (e *env) followPass(in *input, legs []legSpec, dir string, tr *tracer) (map[string]legRun, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	runs := map[string]legRun{}
	started := map[string]bool{}
	var rec *recorder
	var p *pass
	if tr == nil {
		rec = e.rec
		p = startPass()
	}
	var wall, setup time.Duration
	probes := make([]time.Duration, probeRounds)
	for _, l := range legs {
		if p != nil {
			// A fresh leg is probed in a throwaway directory; a resuming
			// leg over the state its predecessor left.
			pdir := dir
			if !started[l.stem] {
				pdir = filepath.Join(e.dir, "probe")
			}
			var perr error
			p.exclude(func() {
				for i := range probes {
					d, err := probeSetup(l, pdir)
					if pdir != dir {
						os.RemoveAll(pdir)
					}
					if err != nil {
						perr = err
						return
					}
					probes[i] += d
				}
			})
			if perr != nil {
				return nil, 0, perr
			}
		}
		run, err := runLeg(l, dir, tr, rec, p)
		e.rec.op(err)
		if err != nil {
			return nil, 0, err
		}
		started[l.stem] = true
		runs[l.stem] = run
		wall += run.wall
		setup += run.setup
	}
	if p != nil {
		entries := len(started) * in.entries
		p.finish(e.rec, wall, entries)
		e.rec.setupS = append(e.rec.setupS, setup.Seconds())
		for _, d := range probes {
			e.rec.setupS = append(e.rec.setupS, d.Seconds())
		}
	}
	for stem, run := range runs {
		e.rec.check(run.res.Ingest.Accepted == in.entries && run.res.Feed.Malformed == 0 && run.res.Ingest.Late == 0,
			"%s: engine accepted %d of %d entries (%d malformed, %d late)", stem,
			run.res.Ingest.Accepted, in.entries, run.res.Feed.Malformed, run.res.Ingest.Late)
	}
	return runs, wall, nil
}

// followLoop measures passes of legs until the deadline. Every pass's
// output directory must equal ref byte for byte; with ref empty, the first
// pass becomes the reference and check validates it. A traced run follows
// every untraced pass with a composed pass over the same legs, which must
// produce the same bytes.
func (e *env) followLoop(in *input, legs []legSpec, ref string, check func(dir string, runs map[string]legRun)) error {
	e.startClock()
	for n := 0; e.more(n); n++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("pass-%d", n))
		runs, wall, err := e.followPass(in, legs, dir, nil)
		if err != nil {
			return err
		}
		if ref == "" {
			ref = dir
			check(dir, runs)
		} else {
			e.rec.check(dirsEqual(ref, dir), "pass %d: outputs differ from the reference run", n)
			os.RemoveAll(dir)
		}
		if !e.trace {
			continue
		}
		tdir := filepath.Join(e.dir, fmt.Sprintf("traced-%d", n))
		tr := newTracer()
		lp := e.layers.startPass()
		truns, twall, err := e.followPass(in, legs, tdir, tr)
		if err != nil {
			return err
		}
		lp.finish(e.layers, tr, twall, wall, len(truns)*in.entries)
		e.rec.check(dirsEqual(ref, tdir), "traced pass %d: composed engine output differs from follow.Run", n)
		os.RemoveAll(tdir)
	}
	return nil
}

// dirsEqual reports whether two directory trees hold the same files with
// the same bytes.
func dirsEqual(a, b string) bool {
	read := func(root string) map[string][]byte {
		files := map[string][]byte{}
		filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
			if err != nil || fi.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			files[rel], err = os.ReadFile(path)
			return err
		})
		return files
	}
	fa, fb := read(a), read(b)
	if len(fa) != len(fb) || len(fa) == 0 {
		return false
	}
	for k, v := range fa {
		if w, ok := fb[k]; !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	return true
}

// checkFinalWindow checks the leg's last model document against
// Miner.Batch over the final window's entries, read back from the input.
func (e *env) checkFinalWindow(in *input, l legSpec, dir string, end logmodel.Millis) {
	wcfg := windowConfig(l.cfg)
	r := logmodel.TimeRange{Start: end - logmodel.Millis(wcfg.WindowBuckets)*wcfg.BucketWidth, End: end}
	store, err := in.windowStore(r)
	if err != nil {
		e.rec.check(false, "%s: reading the final window: %v", l.stem, err)
		return
	}
	m, err := buildMiner(l.cfg, wcfg)
	if err != nil {
		e.rec.check(false, "%s: %v", l.stem, err)
		return
	}
	var want bytes.Buffer
	if err := core.WriteModel(&want, m.Batch(store, r)); err != nil {
		e.rec.check(false, "%s: %v", l.stem, err)
		return
	}
	out, err := os.ReadFile(filepath.Join(dir, l.stem+".out"))
	if err != nil {
		e.rec.check(false, "%s: %v", l.stem, err)
		return
	}
	last := out[bytes.LastIndex(out, []byte("\n{\n"))+1:]
	e.rec.check(bytes.Equal(last, want.Bytes()),
		"%s: final window document differs from Miner.Batch over the window's %d entries", l.stem, store.Len())
}

// scaled returns the input size for the run: full, or tiny in smoke mode.
func (e *env) scaled(scale float64, days int) (float64, int) {
	if e.smoke {
		return 0.05, 2
	}
	return scale, days
}

// baseConfig is the follow configuration every workload starts from: the
// depmine defaults for one-hour buckets and a one-day window.
func baseConfig(in *input, method string, workers int) follow.Config {
	cfg := follow.Config{
		Method: method, Source: in.log, Workers: workers,
		BucketSec: 3600, WindowBuckets: 24, MinLogs: 10,
	}
	switch method {
	case "l2":
		cfg.TimeoutSec = 1
	case "l3":
		cfg.DirPath = in.dirXML
	}
	return cfg
}

// runPersistResume: l2 with a store, a checkpoint and drift over a week;
// a hard stop half way, then a resume to the end.
func runPersistResume(e *env) error {
	scale, days := e.scaled(1, 7)
	in, err := genInput(filepath.Join(e.dir, "input"), e.seed, scale, days)
	if err != nil {
		return err
	}
	cfg := baseConfig(in, "l2", 1)
	cfg.Drift = true
	whole := legSpec{stem: "engine", cfg: cfg, persist: true}
	half := whole
	half.stopAt = in.buckets() / 2
	ref := filepath.Join(e.dir, "uninterrupted")
	if err := os.MkdirAll(ref, 0o755); err != nil {
		return err
	}
	if _, err := runLeg(whole, ref, nil, nil, nil); err != nil {
		return err
	}
	return e.followLoop(in, []legSpec{half, whole}, ref, nil)
}

// runMineL1: l1 at two workers over two days, no sinks.
func runMineL1(e *env) error {
	scale, days := e.scaled(1, 2)
	in, err := genInput(filepath.Join(e.dir, "input"), e.seed, scale, days)
	if err != nil {
		return err
	}
	leg := legSpec{stem: "l1", cfg: baseConfig(in, "l1", 2)}
	return e.followLoop(in, []legSpec{leg}, "", func(dir string, runs map[string]legRun) {
		e.checkFinalWindow(in, leg, dir, runs[leg.stem].windowEnd)
	})
}

// runBareL2L3: l2, then l3, sequentially over a scale-4 week, no sinks.
func runBareL2L3(e *env) error {
	scale, days := e.scaled(4, 7)
	in, err := genInput(filepath.Join(e.dir, "input"), e.seed, scale, days)
	if err != nil {
		return err
	}
	legs := []legSpec{
		{stem: "l2", cfg: baseConfig(in, "l2", 1)},
		{stem: "l3", cfg: baseConfig(in, "l3", 1)},
	}
	return e.followLoop(in, legs, "", func(dir string, runs map[string]legRun) {
		for _, l := range legs {
			e.checkFinalWindow(in, l, dir, runs[l.stem].windowEnd)
		}
	})
}
