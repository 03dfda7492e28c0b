package durable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fela/internal/obs"
)

func newTestStore(t *testing.T) (*DiskStore, string) {
	t.Helper()
	root := t.TempDir()
	s, err := NewDiskStore(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, root
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s, _ := newTestStore(t)
	c := sampleCheckpoint()
	if err := s.Save(c); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(c.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("load mangled checkpoint:\n in %+v\nout %+v", c, got)
	}
}

func TestStoreLoadAbsentIsNil(t *testing.T) {
	s, _ := newTestStore(t)
	got, err := s.Load(42)
	if err != nil || got != nil {
		t.Fatalf("absent checkpoint: got %+v, err %v; want nil, nil", got, err)
	}
}

func TestStoreLatestWins(t *testing.T) {
	s, _ := newTestStore(t)
	for iter := 4; iter <= 19; iter += 5 {
		c := sampleCheckpoint()
		c.Iter = iter
		c.Params[0][0] = float32(iter)
		if err := s.Save(c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Load(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 19 || got.Params[0][0] != 19 {
		t.Fatalf("load returned stale checkpoint: iter %d", got.Iter)
	}
}

func TestStoreCorruptFileDetected(t *testing.T) {
	s, root := newTestStore(t)
	c := sampleCheckpoint()
	if err := s.Save(c); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, ckptDirName, ckptName(c.JobID))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	// Bit rot mid-payload.
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x01
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(c.JobID); !errors.As(err, &ce) {
		t.Fatalf("bit-rotted checkpoint: got %v, want CorruptError", err)
	}
	// Truncation (can only happen to a committed file via outside
	// interference — still must be an error, not a panic).
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(c.JobID); !errors.As(err, &ce) {
		t.Fatalf("truncated checkpoint: got %v, want CorruptError", err)
	}
	// Wrong-job content under this job's filename.
	other := sampleCheckpoint()
	other.JobID = 99
	enc, err := AppendCheckpoint(nil, other)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(c.JobID); !errors.As(err, &ce) {
		t.Fatalf("cross-job checkpoint: got %v, want CorruptError", err)
	}
}

// TestStoreSaveIsAtomic simulates the crash window inside Save: a
// stale .tmp next to a committed checkpoint must never shadow it.
func TestStoreSaveIsAtomic(t *testing.T) {
	s, root := newTestStore(t)
	c := sampleCheckpoint()
	if err := s.Save(c); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(root, ckptDirName, ckptName(c.JobID)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written next checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(c.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != c.Iter {
		t.Fatalf("stale tmp shadowed committed checkpoint: %+v", got)
	}
	// The next Save overwrites the stale tmp and commits cleanly.
	c.Iter = 14
	if err := s.Save(c); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Load(c.JobID); got.Iter != 14 {
		t.Fatalf("save over stale tmp: got iter %d, want 14", got.Iter)
	}
}

func TestStoreTelemetry(t *testing.T) {
	root := t.TempDir()
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(64)
	s, err := NewDiskStore(root, Options{Metrics: reg, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	c := sampleCheckpoint()
	if err := s.Save(c); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter(MetricCkptTotal, "job", "3").Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", MetricCkptTotal, v)
	}
	if v := reg.Gauge(MetricCkptIter, "job", "3").Value(); v != 9 {
		t.Fatalf("%s = %v, want 9", MetricCkptIter, v)
	}
	if v := reg.Gauge(MetricCkptBytes, "job", "3").Value(); v <= 0 {
		t.Fatalf("%s = %v, want > 0", MetricCkptBytes, v)
	}
	var begin, commit bool
	for _, ev := range flight.Snapshot(0) {
		switch {
		case ev.Comp == "durable" && ev.Event == "ckpt.begin":
			begin = true
		case ev.Comp == "durable" && ev.Event == "ckpt.commit":
			if ev.Job != 3 || ev.Iter != 9 {
				t.Fatalf("ckpt.commit mislabeled: %+v", ev)
			}
			commit = true
		}
	}
	if !begin || !commit {
		t.Fatalf("missing flight events: begin=%v commit=%v", begin, commit)
	}
}
