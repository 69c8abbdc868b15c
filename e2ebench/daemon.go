package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"logscape/internal/daemon"
	"logscape/internal/follow"
	"logscape/internal/logmodel"
	"logscape/internal/modelstore"
)

// queryRate is the open-loop query rate of daemon-query, in queries per
// second. A query needs 40 to 80 ms of processor time; sharing the one
// processor with two replaying tenants it takes 100 to 200 ms. At 10 per
// second the sender fell seconds behind its schedule within a pass; at 3
// it stays within tens of milliseconds, so the backlog does not grow.
const queryRate = 3

// minQueries is the fewest answers a daemon-query run collects before it
// stops making passes: query_ms_tail is p75, which needs forty samples to
// keep ten beyond it. Three passes give forty to sixty.
const minQueries = 40

// pollInterval is how often the bucket observer checks the tenants'
// out.log sizes.
const pollInterval = time.Millisecond

// tenantSpec is one daemon tenant and the solo follow configuration that
// must produce the same bytes.
type tenantSpec struct {
	name string
	cfg  daemon.StreamConfig
	keys []string // trajectory keys
	solo legSpec
	// From the solo reference run: its stdout and stderr, the offset just
	// past each model document, and each bucket's window end.
	refOut, refErr []byte
	docEnds        []int64
	windowEnds     []logmodel.Millis
}

func runDaemonQuery(e *env) error {
	scale, days := e.scaled(1, 7)
	in, err := genInput(filepath.Join(e.dir, "input"), e.seed, scale, days)
	if err != nil {
		return err
	}
	base := daemon.StreamConfig{Source: in.log, Workers: 1, BucketSec: 3600, WindowBuckets: 24}
	l2 := base
	l2.Method, l2.TimeoutSec, l2.Drift = "l2", 1, true
	l3 := base
	l3.Method, l3.Directory = "l3", in.dirXML
	tenants := []*tenantSpec{
		{name: "l2drift", cfg: l2, keys: in.pairKeys},
		{name: "l3", cfg: l3, keys: in.depKeys},
	}
	ref := filepath.Join(e.dir, "solo")
	if err := os.MkdirAll(ref, 0o755); err != nil {
		return err
	}
	for _, t := range tenants {
		t.solo = legSpec{stem: t.name, persist: true, cfg: follow.Config{
			Method: t.cfg.Method, Source: t.cfg.Source, DirPath: t.cfg.Directory,
			TimeoutSec: t.cfg.TimeoutSec, Workers: t.cfg.Workers, Drift: t.cfg.Drift,
			BucketSec: t.cfg.BucketSec, WindowBuckets: t.cfg.WindowBuckets,
		}}
		if _, err := runLeg(t.solo, ref, nil, nil, nil); err != nil {
			return err
		}
		if err := t.loadReference(ref); err != nil {
			return err
		}
	}
	// Set-up probes point the tenants at an empty log, so each engine
	// stops right after its first read.
	empty := filepath.Join(e.dir, "empty.log")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		return err
	}
	rng := e.rng(1)
	e.startClock()
	for n := 0; e.more(n) || (!e.smoke && len(e.rec.queryMS) < minQueries); n++ {
		answered := len(e.rec.queryMS)
		if err := e.daemonPass(n, in, tenants, empty, rng); err != nil {
			return err
		}
		if !e.smoke && len(e.rec.queryMS) == answered {
			return fmt.Errorf("pass %d: no query was sent while the tenants replayed", n)
		}
		if !e.trace {
			continue
		}
		// The traced breakdown of the tenants' write path: each tenant's
		// engine run solo through follow.Run, then composed with spans.
		legs := make([]legSpec, len(tenants))
		for i, t := range tenants {
			legs[i] = t.solo
		}
		udir := filepath.Join(e.dir, fmt.Sprintf("solo-%d", n))
		if err := os.MkdirAll(udir, 0o755); err != nil {
			return err
		}
		runtime.GC()
		var wall time.Duration
		for _, l := range legs {
			run, err := runLeg(l, udir, nil, nil, nil)
			e.rec.op(err)
			if err != nil {
				return err
			}
			wall += run.wall
		}
		e.rec.check(dirsEqual(ref, udir), "solo pass %d: outputs differ from the reference run", n)
		os.RemoveAll(udir)
		tdir := filepath.Join(e.dir, fmt.Sprintf("traced-%d", n))
		tr := newTracer()
		lp := e.layers.startPass()
		_, twall, err := e.followPass(in, legs, tdir, tr)
		if err != nil {
			return err
		}
		lp.finish(e.layers, tr, twall, wall, len(legs)*in.entries)
		e.rec.check(dirsEqual(ref, tdir), "traced pass %d: composed engine output differs from follow.Run", n)
		os.RemoveAll(tdir)
	}
	return nil
}

// loadReference reads the tenant's solo outputs from dir and indexes its
// documents and bucket window ends.
func (t *tenantSpec) loadReference(dir string) error {
	var err error
	if t.refOut, err = os.ReadFile(filepath.Join(dir, t.name+".out")); err != nil {
		return err
	}
	if t.refErr, err = os.ReadFile(filepath.Join(dir, t.name+".err")); err != nil {
		return err
	}
	for off := 0; ; {
		i := bytes.Index(t.refOut[off:], []byte("\n}\n"))
		if i < 0 {
			break
		}
		off += i + 3
		t.docEnds = append(t.docEnds, int64(off))
	}
	for _, line := range strings.Split(string(t.refErr), "\n") {
		// window [START .. END): ...
		rest, ok := strings.CutPrefix(line, "window [")
		if !ok {
			continue
		}
		_, rest, _ = strings.Cut(rest, " .. ")
		end, _, _ := strings.Cut(rest, ")")
		at, err := modelstore.ParseWhen(end)
		if err != nil {
			return fmt.Errorf("%s: delta line %q: %w", t.name, line, err)
		}
		t.windowEnds = append(t.windowEnds, at)
	}
	if len(t.docEnds) == 0 || len(t.docEnds) != len(t.windowEnds) {
		return fmt.Errorf("%s: reference has %d documents and %d delta lines", t.name, len(t.docEnds), len(t.windowEnds))
	}
	return nil
}

// observer polls the tenants' out.log sizes, turning each model document
// that appears into a bucket emission time. A poll can find several new
// documents, because on one processor the observer waits for the engines'
// scheduling slices; they were written between the previous poll and this
// one, so their times are spread evenly over that interval, the last at
// this poll.
type observer struct {
	tenants  []*tenantSpec
	paths    []string
	docs     []atomic.Int64 // documents seen per tenant
	emitted  [][]time.Time
	lastPoll time.Time
	p        *pass
	stop     chan struct{}
	done     sync.WaitGroup
}

func (o *observer) run() {
	defer o.done.Done()
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for {
		select {
		case <-o.stop:
			o.poll()
			return
		case <-tick.C:
			o.poll()
		}
	}
}

func (o *observer) poll() {
	now := time.Now()
	changed := false
	for i, t := range o.tenants {
		fi, err := os.Stat(o.paths[i])
		if err != nil {
			continue
		}
		n := sort.Search(len(t.docEnds), func(k int) bool { return t.docEnds[k] > fi.Size() })
		if k := n - len(o.emitted[i]); k > 0 {
			step := now.Sub(o.lastPoll) / time.Duration(k)
			for j := k - 1; j >= 0; j-- {
				o.emitted[i] = append(o.emitted[i], now.Add(-time.Duration(j)*step))
			}
			changed = true
		}
		o.docs[i].Store(int64(n))
	}
	o.lastPoll = now
	if changed {
		o.p.sampleHeap()
	}
}

// daemonPass runs one in-process depmined over both tenants while an
// open-loop client queries it over one loopback connection.
func (e *env) daemonPass(n int, in *input, tenants []*tenantSpec, empty string, rng *rand.Rand) error {
	state := filepath.Join(e.dir, fmt.Sprintf("daemon-%d", n))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	obs := &observer{tenants: tenants, docs: make([]atomic.Int64, len(tenants)),
		emitted: make([][]time.Time, len(tenants)), stop: make(chan struct{})}
	for _, t := range tenants {
		obs.paths = append(obs.paths, filepath.Join(state, t.name, "out.log"))
	}
	p := startPass()
	obs.p, obs.lastPoll = p, time.Now()
	obs.done.Add(1)
	go obs.run()
	stopObserver := func() {
		close(obs.stop)
		obs.done.Wait()
	}
	t0 := time.Now()
	d, err := daemon.New(daemon.Config{StateDir: state})
	if err != nil {
		stopObserver()
		ln.Close()
		return err
	}
	for _, t := range tenants {
		if _, err := d.Upsert(t.name, t.cfg); err != nil {
			d.Kill()
			stopObserver()
			ln.Close()
			return err
		}
	}
	srv := &http.Server{Handler: d.Handler()}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(served)
	}()
	var finished sync.WaitGroup
	var end time.Time
	allDone := make(chan struct{})
	runErrs := make([]error, len(tenants))
	for i, t := range tenants {
		finished.Add(1)
		go func(i int, name string) {
			defer finished.Done()
			st, err := d.Wait(name)
			if err == nil && st.State != "done" {
				err = fmt.Errorf("tenant %s ended %s: %s", name, st.State, st.Error)
			}
			runErrs[i] = err
		}(i, t.name)
	}
	go func() {
		finished.Wait()
		end = time.Now()
		close(allDone)
	}()

	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: transport}
	e.loadgen(client, "http://"+ln.Addr().String(), in, tenants, obs, rng, allDone)
	<-allDone
	stopObserver()
	wall := end.Sub(t0)
	transport.CloseIdleConnections()
	srv.Close()
	<-served
	d.Kill()
	p.finish(e.rec, wall, len(tenants)*in.entries)
	for _, err := range runErrs {
		e.rec.op(err)
	}

	for i, t := range tenants {
		for k := 1; k < len(obs.emitted[i]); k++ {
			e.rec.bucketMS = append(e.rec.bucketMS, float64(obs.emitted[i][k].Sub(obs.emitted[i][k-1]).Nanoseconds())/1e6)
		}
		out, err := os.ReadFile(filepath.Join(state, t.name, "out.log"))
		e.rec.check(err == nil && bytes.Equal(out, t.refOut), "pass %d: tenant %s out.log differs from a solo follow.Run", n, t.name)
		events, err := os.ReadFile(filepath.Join(state, t.name, "events.log"))
		e.rec.check(err == nil && bytes.Equal(events, t.refErr), "pass %d: tenant %s events.log differs from a solo follow.Run", n, t.name)
	}
	os.RemoveAll(state)

	// Set-up, several times, over an empty log: from New until both
	// tenants' engines have made their first source read, which on an
	// empty log is also their last. The pass above cannot be observed
	// reaching its first read from outside the daemon.
	syscall.Sync()
	for i := 0; i < probeRounds; i++ {
		pstate := filepath.Join(e.dir, "probe")
		t0 := time.Now()
		d, err := daemon.New(daemon.Config{StateDir: pstate})
		if err != nil {
			return err
		}
		for _, t := range tenants {
			cfg := t.cfg
			cfg.Source = empty
			if _, err := d.Upsert(t.name, cfg); err != nil {
				d.Kill()
				return err
			}
		}
		for _, t := range tenants {
			if st, err := d.Wait(t.name); err != nil || st.State != "done" {
				d.Kill()
				return fmt.Errorf("set-up probe: tenant %s ended %s: %v", t.name, st.State, err)
			}
		}
		e.rec.setupS = append(e.rec.setupS, time.Since(t0).Seconds())
		d.Kill()
		os.RemoveAll(pstate)
	}
	return nil
}

// loadgen sends model, diff and trajectory queries in turn on an
// open-loop schedule of queryRate per second, from the moment every tenant
// has a retained history until every tenant has finished. Each query names
// a seeded tenant and seeded instants spread uniformly over the history
// that tenant retains when the query is due, and is timed from its due
// time.
func (e *env) loadgen(client *http.Client, base string, in *input, tenants []*tenantSpec, obs *observer, rng *rand.Rand, allDone chan struct{}) {
	// The store compacts every finished day to its last model, so an
	// instant inside the first day stops being retained during the replay;
	// from the end of the first day on, every instant stays answerable.
	lo := in.start + logmodel.MillisPerDay
	history := func(ti int) []logmodel.Millis {
		ends := tenants[ti].windowEnds[:obs.docs[ti].Load()]
		i := sort.Search(len(ends), func(k int) bool { return ends[k] >= lo })
		return ends[i:]
	}
	for ready := false; !ready; {
		ready = true
		for i := range tenants {
			ready = ready && len(history(i)) > 0
		}
		if !ready {
			select {
			case <-allDone:
				return
			case <-time.After(pollInterval):
			}
		}
	}
	kinds := []string{"model", "diff", "trajectory"}
	start := time.Now()
	sent := 0
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / queryRate * float64(time.Second)))
		select {
		case <-allDone:
			if e.layers != nil {
				e.layers.perPass["loadgen.sent"] = append(e.layers.perPass["loadgen.sent"], float64(sent))
			}
			return
		case <-time.After(time.Until(due)):
		}
		ti := rng.Intn(len(tenants))
		t := tenants[ti]
		hist := history(ti)
		instant := func() string {
			lo, hi := int64(hist[0])/1000, int64(hist[len(hist)-1])/1000
			return modelstore.Stamp(logmodel.Millis((lo + rng.Int63n(hi-lo+1)) * 1000))
		}
		kind := kinds[i%len(kinds)]
		q := url.Values{}
		switch kind {
		case "model":
			q.Set("at", instant())
		case "diff":
			a, b := instant(), instant()
			if b < a {
				a, b = b, a
			}
			q.Set("from", a)
			q.Set("to", b)
		case "trajectory":
			q.Set("key", t.keys[rng.Intn(len(t.keys))])
		}
		sentAt := time.Now()
		err := get(client, base+"/streams/"+t.name+"/"+kind+"?"+q.Encode())
		done := time.Now()
		sent++
		e.rec.op(err)
		e.rec.queryMS = append(e.rec.queryMS, float64(done.Sub(due).Nanoseconds())/1e6)
		if e.layers != nil {
			e.layers.series["daemon."+kind] = append(e.layers.series["daemon."+kind], float64(done.Sub(sentAt).Nanoseconds())/1e6)
			e.layers.series["loadgen.late"] = append(e.layers.series["loadgen.late"], float64(sentAt.Sub(due).Nanoseconds())/1e6)
		}
	}
}

// get issues one query and drains its body; any status but 200 fails it.
func get(client *http.Client, u string) error {
	resp, err := client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, bytes.TrimSpace(body))
	}
	return nil
}
