// Command e2ebench is logscape's end-to-end benchmark. It generates seeded
// inputs in-process from the hospital simulator, drives the real entry
// points (internal/follow.Run and the depmined HTTP handler) over them,
// checks every output for correctness outside the timed region, and prints
// one JSON result object as the last line of standard output.
//
//	e2ebench --workload persist-resume --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 is the
// separate traced run that reports the per-layer metrics. --workload all
// runs every workload in turn. --smoke shrinks every input to a few
// thousand entries; the package's tests use it. NOTES.md explains the
// workloads, the metrics and how to read the traced breakdown.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one benchmark configuration.
type workload struct {
	name string
	// run measures passes until the deadline, recording into e.rec.
	run func(e *env) error
	// bucketTail and queryTail are the tail percentiles reported for the
	// workload's bucket and query latencies: the highest percentile that
	// keeps at least ten samples beyond it at the sample count a normal
	// run collects (tail falls back further when a run collects fewer).
	bucketTail, queryTail float64
}

var workloads = []workload{
	{name: "persist-resume", run: runPersistResume, bucketTail: 95, queryTail: 95},
	{name: "mine-l1", run: runMineL1, bucketTail: 90, queryTail: 90},
	{name: "bare-l2-l3", run: runBareL2L3, bucketTail: 95, queryTail: 95},
	{name: "daemon-query", run: runDaemonQuery, bucketTail: 95, queryTail: 75},
}

// procs is the GOMAXPROCS every workload runs at, garbage collector
// included. On a shared host the second processor is the one taken away
// first: with two, run-to-run spread was two to three times larger.
const procs = 1

// env is one workload run's context.
type env struct {
	seed     int64
	window   time.Duration // how long passes are started (--seconds)
	deadline time.Time     // passes start only before it; see startClock
	trace    bool
	smoke    bool
	dir      string // work directory for inputs and outputs
	rec      *recorder
	layers   *layerRecorder // nil unless trace
}

// minPasses is the fewest passes a run makes, however long they take, so
// that every tail percentile keeps enough samples beyond it.
const minPasses = 3

// more reports whether another pass should start.
func (e *env) more(passes int) bool {
	return passes < minPasses || time.Now().Before(e.deadline)
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed: drives the generated inputs and the query instants")
	seconds := flag.Int("seconds", 20, "how long each workload measures")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny inputs, for the benchmark's own tests")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown --workload %q (want one of %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	ok := true
	for _, w := range todo {
		res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *smoke, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runWorkload runs one workload in a fresh work directory under the
// current directory's .bench_build, writes its human-readable report to
// out and returns the result object.
func runWorkload(w workload, seed int64, d time.Duration, trace, smoke bool, out io.Writer) (result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return result{}, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	e := &env{seed: seed, window: d, trace: trace, smoke: smoke, dir: abs, rec: &recorder{}}
	if trace {
		e.layers = newLayerRecorder()
	}
	if err := w.run(e); err != nil {
		return result{}, err
	}
	res := result{
		Correct:   len(e.rec.problems) == 0 && e.rec.failed == 0,
		Attempted: e.rec.attempted,
		Failed:    e.rec.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(out, "workload %s seed %d trace %v: %d passes, %d operations, %d failed\n",
		w.name, seed, trace, e.rec.passes, e.rec.attempted, e.rec.failed)
	for _, p := range e.rec.problems {
		fmt.Fprintln(out, "  CHECK FAILED:", p)
	}
	var lines []string
	if trace {
		lines = e.layers.report(res.Metrics)
	} else {
		lines = e.rec.report(w, res.Metrics)
	}
	for _, l := range lines {
		fmt.Fprintln(out, "  "+l)
	}
	return res, nil
}

// startClock opens the measurement window. Workloads call it once their
// inputs and reference outputs exist, so that set-up does not eat into
// the measurement.
func (e *env) startClock() {
	e.deadline = time.Now().Add(e.window)
}
