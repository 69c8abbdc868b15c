package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"logscape/internal/parallel"
)

// layerMetrics lists the traced run's per-layer metrics in report order.
// A "pass" metric is the median over passes of the per-pass value; a
// "p50"/"tail" metric summarizes every sample of its series in the run; a
// "max" metric is the largest sample.
var layerMetrics = []struct {
	name, unit, kind, series string
}{
	{"l1.advance.busy_ms", "ms", "pass", ""},
	{"l1.advance.ms_p50", "ms", "p50", "l1.advance"},
	{"l1.advance.ms_tail", "ms", "tail", "l1.advance"},
	{"l1.snapshot.busy_ms", "ms", "pass", ""},
	{"l1.slots", "count", "pass", ""},
	{"parallel.handoffs", "count", "pass", ""},
	{"parallel.misses", "count", "pass", ""},
	{"parallel.handoff_ratio", "ratio", "pass", ""},
	{"stream.read.busy_ms", "ms", "pass", ""},
	{"stream.read.bytes", "B", "pass", ""},
	{"stream.feed.self_ms", "ms", "pass", ""},
	{"stream.feed.entries", "count", "pass", ""},
	{"l2.advance.busy_ms", "ms", "pass", ""},
	{"l2.snapshot.busy_ms", "ms", "pass", ""},
	{"sessions.tracker_added", "count", "pass", ""},
	{"sessions.tracker_removed", "count", "pass", ""},
	{"l3.advance.busy_ms", "ms", "pass", ""},
	{"l3.snapshot.busy_ms", "ms", "pass", ""},
	{"l3.entries_scanned", "count", "pass", ""},
	{"modelstore.append.busy_ms", "ms", "pass", ""},
	{"modelstore.append.ms_tail", "ms", "tail", "modelstore.append"},
	{"modelstore.bytes_written", "B", "pass", ""},
	{"modelstore.compactions", "count", "pass", ""},
	{"stream.checkpoint.busy_ms", "ms", "pass", ""},
	{"stream.checkpoint.bytes", "B", "pass", ""},
	{"drift.observe.busy_ms", "ms", "pass", ""},
	{"drift.state.busy_ms", "ms", "pass", ""},
	{"follow.render.busy_ms", "ms", "pass", ""},
	{"io.write_bytes_per_entry", "B", "pass", ""},
	{"modelstore.open_ms", "ms", "pass", ""},
	{"modelstore.hydrate_ms", "ms", "pass", ""},
	{"stream.restore_ms", "ms", "pass", ""},
	{"daemon.model.ms_p50", "ms", "p50", "daemon.model"},
	{"daemon.model.ms_tail", "ms", "tail", "daemon.model"},
	{"daemon.diff.ms_p50", "ms", "p50", "daemon.diff"},
	{"daemon.diff.ms_tail", "ms", "tail", "daemon.diff"},
	{"daemon.trajectory.ms_p50", "ms", "p50", "daemon.trajectory"},
	{"daemon.trajectory.ms_tail", "ms", "tail", "daemon.trajectory"},
	{"loadgen.late_ms_max", "ms", "max", "loadgen.late"},
	{"loadgen.sent", "count", "pass", ""},
	{"runtime.gc_cycles", "count", "pass", ""},
	{"runtime.gc_pause_ms", "ms", "pass", ""},
	{"trace.overhead_ratio", "ratio", "pass", ""},
}

// layerRecorder collects the traced run's per-layer samples.
type layerRecorder struct {
	perPass map[string][]float64
	series  map[string][]float64
}

func newLayerRecorder() *layerRecorder {
	return &layerRecorder{perPass: map[string][]float64{}, series: map[string][]float64{}}
}

// layerPass brackets one traced pass for the process-wide counters.
type layerPass struct {
	gc0    uint32
	pause0 time.Duration
	pool0  parallel.PoolStats
	wchar0 int64
}

func (l *layerRecorder) startPass() *layerPass {
	runtime.GC()
	lp := &layerPass{pool0: parallel.Stats(), wchar0: wchar()}
	lp.gc0, lp.pause0 = gcTotals()
	return lp
}

// finish records a traced pass over entries: the spans and counters of tr,
// the bytes written, and the pass's wall time against the untraced pass's
// wall over the same legs.
func (lp *layerPass) finish(l *layerRecorder, tr *tracer, traced, untraced time.Duration, entries int) {
	written := wchar() - lp.wchar0
	gc, pause := gcTotals()
	pool := parallel.Stats()
	handoffs, misses := pool.Handoffs-lp.pool0.Handoffs, pool.Misses-lp.pool0.Misses
	ratio := 0.0
	if handoffs+misses > 0 {
		ratio = float64(handoffs) / float64(handoffs+misses)
	}
	counter := func(name string) float64 { return float64(tr.reg.Counter(name).Value()) }
	vals := map[string]float64{
		"parallel.handoffs":      float64(handoffs),
		"parallel.misses":        float64(misses),
		"parallel.handoff_ratio": ratio,
		"stream.read.busy_ms":    tr.busyMS("stream.read"),
		"stream.read.bytes":      float64(tr.counts["stream.read.bytes"]),
		"stream.feed.self_ms":    tr.selfMS("stream.feed"),
		"stream.feed.entries":    counter("stream.entries_accepted"),
		// The streaming L1 miner tests each bucket as one slot.
		"l1.slots":                  float64(len(tr.durationsMS("l1.advance"))),
		"sessions.tracker_added":    counter("sessions.tracker_added"),
		"sessions.tracker_removed":  counter("sessions.tracker_removed"),
		"l3.entries_scanned":        counter("l3.entries_scanned"),
		"modelstore.append.busy_ms": tr.busyMS("modelstore.append"),
		"modelstore.bytes_written":  counter("store.bytes_written"),
		"modelstore.compactions":    counter("store.compactions"),
		// drift.state runs inside the checkpoint span; count it once.
		"stream.checkpoint.busy_ms": tr.selfMS("stream.checkpoint"),
		"stream.checkpoint.bytes":   float64(tr.counts["stream.checkpoint.bytes"]),
		"drift.observe.busy_ms":     tr.busyMS("drift.observe"),
		"drift.state.busy_ms":       tr.busyMS("drift.state"),
		"follow.render.busy_ms":     tr.busyMS("follow.render"),
		"io.write_bytes_per_entry":  float64(written) / float64(entries),
		"modelstore.open_ms":        tr.busyMS("modelstore.open"),
		"modelstore.hydrate_ms":     tr.busyMS("modelstore.hydrate"),
		"stream.restore_ms":         tr.busyMS("stream.restore"),
		"runtime.gc_cycles":         float64(gc - lp.gc0),
		"runtime.gc_pause_ms":       float64((pause - lp.pause0).Nanoseconds()) / 1e6,
		"trace.overhead_ratio":      traced.Seconds() / untraced.Seconds(),
	}
	for _, m := range []string{"l1", "l2", "l3"} {
		vals[m+".advance.busy_ms"] = tr.busyMS(m + ".advance")
		vals[m+".snapshot.busy_ms"] = tr.busyMS(m + ".snapshot")
	}
	for k, v := range vals {
		l.perPass[k] = append(l.perPass[k], v)
	}
	for _, s := range []string{"l1.advance", "modelstore.append"} {
		l.series[s] = append(l.series[s], tr.durationsMS(s)...)
	}
}

// report fills the per-layer metrics and returns the report lines: the
// traced breakdown, one line per metric.
func (l *layerRecorder) report(out map[string]metric) []string {
	var lines []string
	for _, m := range layerMetrics {
		var v float64
		var how string
		switch m.kind {
		case "pass":
			xs := l.perPass[m.name]
			v, how = quantile(xs, 50), fmt.Sprintf("median of %d passes", len(xs))
		case "p50":
			xs := l.series[m.series]
			v, how = quantile(xs, 50), fmt.Sprintf("p50 of %d", len(xs))
		case "tail":
			xs := l.series[m.series]
			p := tailPct(len(xs), 99)
			v, how = quantile(xs, p), fmt.Sprintf("p%g of %d", p, len(xs))
		case "max":
			xs := l.series[m.series]
			v, how = quantile(xs, 100), fmt.Sprintf("max of %d", len(xs))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
		lines = append(lines, fmt.Sprintf("%-28s %14.4f %-6s %s", m.name, v, m.unit, how))
	}
	return lines
}
