package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// recorder collects the end-to-end samples of one untraced run, and the
// operation counts and correctness failures of every run.
type recorder struct {
	passes            int
	attempted, failed int
	problems          []string
	entriesPerS       []float64 // per pass
	setupS            []float64 // per engine start, real and set-up-only
	bucketMS          []float64 // per bucket: interval since the previous one
	queryMS           []float64 // per answer: wait from its due time
	heapPeakMB        []float64 // per pass
	allocPerEntry     []float64 // per pass
}

// check records a correctness failure when ok is false.
func (r *recorder) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and, when err is non-nil, a failure.
func (r *recorder) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// report fills the end-to-end metrics and returns the report lines.
func (r *recorder) report(w workload, out map[string]metric) []string {
	var lines []string
	put := func(name, unit string, v float64, how string) {
		out[name] = metric{Value: v, Unit: unit}
		lines = append(lines, fmt.Sprintf("%-22s %14.4f %-6s %s", name, v, unit, how))
	}
	med := func(xs []float64) (float64, string) {
		return quantile(xs, 50), fmt.Sprintf("median of %d (range %.4g..%.4g)", len(xs), quantile(xs, 0), quantile(xs, 100))
	}
	v, how := med(r.entriesPerS)
	put("entries_per_s", "1/s", v, how+" passes")
	v, how = med(r.setupS)
	put("setup_s", "s", v, how+" engine starts")
	v, how = med(r.bucketMS)
	put("bucket_ms_p50", "ms", v, how+" bucket intervals")
	p := tailPct(len(r.bucketMS), w.bucketTail)
	put("bucket_ms_tail", "ms", quantile(r.bucketMS, p), fmt.Sprintf("p%g of %d bucket intervals", p, len(r.bucketMS)))
	v, how = med(r.queryMS)
	put("query_ms_p50", "ms", v, how+" answers")
	p = tailPct(len(r.queryMS), w.queryTail)
	put("query_ms_tail", "ms", quantile(r.queryMS, p), fmt.Sprintf("p%g of %d answers", p, len(r.queryMS)))
	v, how = med(r.heapPeakMB)
	put("heap_peak_mb", "MB", v, how+" passes")
	v, how = med(r.allocPerEntry)
	put("alloc_bytes_per_entry", "B", v, how+" passes")
	return lines
}

// tailPct returns want when n samples leave at least ten beyond it, else
// the highest lower percentile of the ladder that does.
func tailPct(n int, want float64) float64 {
	for _, p := range []float64{99, 95, 90, 75, 50} {
		if p <= want && float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// quantile returns the p-th percentile of xs (nearest rank; 0 when empty).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// pass measures one pass: wall time, allocation and the peak live heap
// sampled at bucket boundaries.
type pass struct {
	start    time.Time
	alloc0   uint64
	heapPeak uint64
	samples  []metrics.Sample
}

// exclude runs fn with its allocation left out of the pass.
func (p *pass) exclude(fn func()) {
	metrics.Read(p.samples[:1])
	a := p.samples[0].Value.Uint64()
	fn()
	metrics.Read(p.samples[:1])
	p.alloc0 += p.samples[0].Value.Uint64() - a
}

// startPass flushes the files earlier work left dirty and collects its
// garbage, so every pass starts from the same disk and heap state, then
// opens the measurement.
func startPass() *pass {
	syscall.Sync()
	runtime.GC()
	p := &pass{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}}
	metrics.Read(p.samples)
	p.alloc0 = p.samples[0].Value.Uint64()
	p.start = time.Now()
	return p
}

// sampleHeap records the live heap; call it at every bucket boundary.
func (p *pass) sampleHeap() {
	metrics.Read(p.samples[1:])
	if v := p.samples[1].Value.Uint64(); v > p.heapPeak {
		p.heapPeak = v
	}
}

// finish closes the pass over wall (the engine time the pass measured)
// and records its per-entry figures.
func (p *pass) finish(r *recorder, wall time.Duration, entries int) {
	p.sampleHeap()
	metrics.Read(p.samples[:1])
	alloc := p.samples[0].Value.Uint64() - p.alloc0
	r.passes++
	r.entriesPerS = append(r.entriesPerS, float64(entries)/wall.Seconds())
	r.heapPeakMB = append(r.heapPeakMB, float64(p.heapPeak)/(1<<20))
	r.allocPerEntry = append(r.allocPerEntry, float64(alloc)/float64(entries))
}

// wchar reads the bytes this process has passed to write calls so far
// (/proc/self/io), or 0 where the file does not exist.
func wchar() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("wchar: ")); ok {
			n, _ := strconv.ParseInt(string(v), 10, 64)
			return n
		}
	}
	return 0
}

// gcTotals returns the GC cycle count and total stop-the-world pause time.
func gcTotals() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}
