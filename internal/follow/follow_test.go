package follow_test

// Fail-fast sinks: a sink error (stdout, store append, checkpoint write)
// must stop the engine at the next read, not let it keep reading a live
// source while its output is lost.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logscape/internal/daemon"
	"logscape/internal/follow"
	"logscape/internal/logmodel"
)

// entryLines renders n one-second-apart wire-format lines.
func entryLines(n int) []string {
	base := logmodel.Millis(time.Date(2005, 12, 6, 8, 0, 0, 0, time.UTC).UnixMilli())
	srcs := []string{"A", "B", "C"}
	lines := make([]string, n)
	for i := range lines {
		lines[i] = logmodel.FormatEntry(logmodel.Entry{
			Time: base + logmodel.Millis(i)*1000, Source: srcs[i%len(srcs)],
			Host: "h", User: "u", Severity: logmodel.SevInfo, Message: "step",
		}) + "\n"
	}
	return lines
}

// failWriter fails every write, as a closed pipe or a full disk does.
type failWriter struct{ writes int }

var errSink = errors.New("sink refused the write")

func (w *failWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errSink
}

// TestRunStopsAtFirstSinkError tails a live source that grows by one
// one-second entry per quiescent-EOF poll. The first closed bucket's
// document write fails, and Run must return that error at the very next
// read: no further poll, no further entry, no further bucket.
func TestRunStopsAtFirstSinkError(t *testing.T) {
	lines := entryLines(50)
	path := filepath.Join(t.TempDir(), "live.log")
	if err := os.WriteFile(path, []byte(lines[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	next, polls := 1, 0
	wait := func() bool {
		polls++
		if next < len(lines) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Error(err)
				return false
			}
			_, err = f.WriteString(lines[next])
			f.Close()
			if err != nil {
				t.Error(err)
				return false
			}
			next++
			return true
		}
		// A live source keeps polling at EOF; the cap only bounds an
		// engine that fails to stop.
		return polls < 2*len(lines)
	}
	stdout := &failWriter{}
	var stderr strings.Builder
	res, err := follow.Run(follow.Config{
		Method: "l2", Source: path, Workers: 1,
		BucketSec: 1, WindowBuckets: 4,
		Wait: wait,
	}, stdout, &stderr)
	if !errors.Is(err, errSink) {
		t.Fatalf("Run = %v, want the sink error", err)
	}
	// Entry 1 closes bucket 0, whose document write fails.
	if stdout.writes != 1 || polls != 1 || res.Ingest.Accepted != 2 || res.Ingest.Buckets != 1 {
		t.Errorf("after the failed write the engine went on: %d writes, %d polls, %d entries, %d buckets; want 1, 1, 2, 1",
			stdout.writes, polls, res.Ingest.Accepted, res.Ingest.Buckets)
	}
}

// TestDaemonTenantFailsOnSinkError makes a live daemon tenant's checkpoint
// write fail (its temp path is a directory). The tenant must go to
// "failed" with the error in its status instead of tailing on as
// "running".
func TestDaemonTenantFailsOnSinkError(t *testing.T) {
	src := filepath.Join(t.TempDir(), "stream.log")
	if err := os.WriteFile(src, []byte(strings.Join(entryLines(50), "")), 0o644); err != nil {
		t.Fatal(err)
	}
	state := t.TempDir()
	// The tenant checkpoints to <state>/<name>/follow.ckpt via a sibling
	// temp file; a directory in its place fails the write.
	if err := os.MkdirAll(filepath.Join(state, "hug", "follow.ckpt.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(daemon.Config{StateDir: state, PollMillis: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	if _, err := d.Upsert("hug", daemon.StreamConfig{
		Method: "l2", Source: src, Workers: 1, BucketSec: 1, WindowBuckets: 4, Live: true,
	}); err != nil {
		t.Fatal(err)
	}
	// Poll for at most ~10 s: an engine that never stops stays "running".
	var st daemon.Status
	for i := 0; i < 10000; i++ {
		if st, err = d.Status("hug"); err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st.State != "failed" || !strings.Contains(st.Error, "writing checkpoint") {
		t.Fatalf("tenant state %q, error %q; want failed on the checkpoint write", st.State, st.Error)
	}
	// All 50 entries arrived in one read, so the engine stopped at the next
	// read without ever reaching the live tail's idle poll.
	if st.IdlePolls != 0 || st.Totals == nil || st.Totals.Buckets != 49 {
		t.Errorf("failed tenant status %+v: want 0 idle polls and 49 closed buckets", st)
	}
}
