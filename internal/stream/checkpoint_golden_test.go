package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"logscape/internal/logmodel"
)

// goldenCfg is the golden ingester's window geometry.
var goldenCfg = Config{BucketWidth: 1000, WindowBuckets: 4}

// goldenIngester builds a fixed ingester state that exercises every
// checkpoint field: window buckets (one already retired), a late and a
// corrupt drop, two pending entries, empty and non-UTF-8 message bytes.
func goldenIngester() *Ingester {
	in := NewIngester(goldenCfg)
	for _, e := range []logmodel.Entry{
		{Time: 1200, Source: "A", Host: "h1", User: "u1", Severity: logmodel.SevInfo, Message: "first"},
		{Time: 1100, Source: "B", Host: "h2", Severity: logmodel.SevWarn, Message: "reordered"},
		{Time: 2300, Source: "A", Host: "h1", User: "u2", Severity: logmodel.SevError, Message: ""},
		{Time: 900, Source: "C", Host: "h3", Message: "late"},
		{Time: MaxAbsTime, Source: "C", Host: "h3", Message: "corrupt"},
		{Time: 3400, Source: "C", Host: "h3", Severity: logmodel.SevInfo, Message: "bad \xff\xfe utf8"},
		{Time: 5100, Source: "B", Host: "h2", User: "u1", Severity: logmodel.SevInfo, Message: "gap"},
		{Time: 6700, Source: "A", Host: "h1", Severity: logmodel.SevInfo, Message: "pending one"},
		{Time: 6050, Source: "B", Host: "h2", Severity: logmodel.SevDebug, Message: "pending two"},
	} {
		in.Add(e)
	}
	return in
}

// TestCheckpointFileBytes pins the on-disk checkpoint format: a resumed
// binary must read the checkpoint the previous binary wrote, so the bytes
// WriteCheckpointFile produces for a fixed ingester — full and light form,
// before and after the first accepted entry — are compared against files
// captured from the format's first release. Never regenerate them from the
// code under test: a diff here is a format change.
func TestCheckpointFileBytes(t *testing.T) {
	fresh := NewIngester(goldenCfg)
	fresh.Add(logmodel.Entry{Time: -MaxAbsTime, Source: "A", Host: "h"})
	drift := []byte(`{"v":1}`)
	cases := []struct {
		golden string
		cp     *Checkpoint
	}{
		{"checkpoint_full.json", goldenIngester().Checkpoint(4242, 0)},
		{"checkpoint_light.json", goldenIngester().CheckpointLight(4242, 0)},
		{"checkpoint_unstarted_full.json", fresh.Checkpoint(17, 2)},
		{"checkpoint_unstarted_light.json", fresh.CheckpointLight(17, 2)},
	}
	withDrift := goldenIngester().Checkpoint(99, 1)
	withDrift.Drift = drift
	cases = append(cases, struct {
		golden string
		cp     *Checkpoint
	}{"checkpoint_drift.json", withDrift})

	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, c.golden)
		if err := WriteCheckpointFile(path, c.cp); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: checkpoint bytes changed\ngot  %s\nwant %s", c.golden, got, want)
		}
		back, err := ReadCheckpointFile(path)
		if err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		if back.WindowInStore {
			continue
		}
		if _, err := back.Restore(goldenCfg); err != nil {
			t.Errorf("%s: restore: %v", c.golden, err)
		}
	}
}
