package main

// A real-scale L1 golden. The follow goldens above run 25 points per
// bucket, so they never reach the slot test's subsample (more than
// SampleSize points) nor the large-n median-interval ranks; the
// stream-vs-batch and worker-count suites compare the current code with
// itself. This test pins the SHA-256 of L1 batch and follow output over a
// generated two-day hospital corpus, so any byte change in the slot test
// shows up here.
//
// The same hashes come out of the command line:
//
//	loggen -out D -days 2 -seed 2005
//	depmine -method l1 -minlogs 100 -workers 1 D/day-0.log D/day-1.log | sha256sum
//	cat D/day-0.log D/day-1.log > D/both.log
//	depmine -follow -method l1 -workers 2 D/both.log 2>/dev/null | sha256sum

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"logscape/internal/core/l1"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
)

const (
	l1GoldenBatchSHA  = "5ede819c0be91b2ab89b1d34713f523084f204d2da4788752fc6a56830ba3b8d"
	l1GoldenFollowSHA = "f3f73d892a121f9bc440cf306ce57d913f7b6b3e0892f8342e1861900ef69400"
)

// writeHospitalDays writes days 0..n-1 of the calibrated hospital
// simulation (cmd/loggen's defaults) as wire-format files in a temp dir.
func writeHospitalDays(t *testing.T, n int) []string {
	t.Helper()
	const seed = 2005
	cfg := hospital.DefaultConfig(seed)
	cfg.Days = n
	sim := hospital.NewSimulator(cfg, hospital.GenerateTopology(hospital.DefaultTopologyConfig(), seed))
	dir := t.TempDir()
	var files []string
	for d := 0; d < n; d++ {
		store, _ := sim.GenerateDay(d)
		name := filepath.Join(dir, fmt.Sprintf("day-%d.log", d))
		if err := logmodel.WriteFile(name, store); err != nil {
			t.Fatal(err)
		}
		files = append(files, name)
	}
	return files
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestL1RealScaleGolden(t *testing.T) {
	files := writeHospitalDays(t, 2)

	// Batch: what `depmine -method l1 -minlogs 100 -workers 1` prints.
	store, err := loadLogs(files)
	if err != nil {
		t.Fatal(err)
	}
	res := l1.Mine(store, store.Span(), nil, l1.Config{MinLogs: 100, Workers: 1})
	var batch bytes.Buffer
	for _, p := range res.DependentPairs().SortedPairs() {
		fmt.Fprintf(&batch, "%s\t%s\n", p.A, p.B)
	}
	if got := sha256Hex(batch.Bytes()); got != l1GoldenBatchSHA {
		t.Errorf("batch L1 output sha256 = %s, want %s", got, l1GoldenBatchSHA)
	}

	// Follow: the model documents of `depmine -follow -method l1
	// -workers 2` (flag defaults otherwise) over the concatenated days.
	var cat []byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cat = append(cat, b...)
	}
	both := filepath.Join(t.TempDir(), "both.log")
	if err := os.WriteFile(both, cat, 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{
		method:    "l1",
		minlogs:   10,
		timeout:   1,
		workers:   2,
		bucketSec: 3600,
		windowN:   24,
		files:     []string{both},
	}
	var stdout, stderr bytes.Buffer
	if err := followStream(o, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(stdout.Bytes()); got != l1GoldenFollowSHA {
		t.Errorf("follow L1 output sha256 = %s, want %s", got, l1GoldenFollowSHA)
	}
}
