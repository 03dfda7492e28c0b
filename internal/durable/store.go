package durable

// The checkpoint store. Save commits atomically: the encoded record is
// written to job-<id>.ckpt.tmp, fsynced, renamed over job-<id>.ckpt,
// and the directory is fsynced so the rename itself is durable. A
// reader therefore only ever observes the previous checkpoint or the
// new one — a crash mid-Save leaves at worst a stale .tmp file that
// the next Save overwrites.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"fela/internal/obs"
)

// ckptDirName is the checkpoint subdirectory inside a durable root.
const ckptDirName = "ckpt"

// DiskStore is the checkpoint store: latest-wins persistence of one
// CRC-guarded record file per job under <root>/ckpt, committed by
// atomic rename. Save is serialized internally — every job
// coordinator checkpoints through the same store.
type DiskStore struct {
	dir  string
	opts Options
	mu   sync.Mutex
	buf  []byte
}

// NewDiskStore opens (creating if needed) the checkpoint directory
// under root.
func NewDiskStore(root string, opts Options) (*DiskStore, error) {
	dir := filepath.Join(root, ckptDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: checkpoint dir: %w", err)
	}
	return &DiskStore{dir: dir, opts: opts}, nil
}

func ckptName(jobID int) string { return fmt.Sprintf("job-%d.ckpt", jobID) }

func (s *DiskStore) path(jobID int) string { return filepath.Join(s.dir, ckptName(jobID)) }

// Save commits c via write-tmp, fsync, rename, fsync-dir. Safe for
// concurrent use: one multi-tenant manager checkpoints many jobs
// through one store.
func (s *DiskStore) Save(c *Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := obs.Evt("durable", "ckpt.begin")
	ev.Job, ev.Iter = c.JobID, c.Iter
	obs.FlightOr(s.opts.Flight).Record(ev)

	var err error
	s.buf, err = AppendCheckpoint(s.buf[:0], c)
	if err != nil {
		return err
	}
	final := s.path(c.JobID)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: checkpoint tmp: %w", err)
	}
	if _, err := f.Write(s.buf); err != nil {
		f.Close()
		return fmt.Errorf("durable: checkpoint write: %w", err)
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: checkpoint fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("durable: checkpoint rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}

	if m := s.opts.Metrics; m != nil {
		job := strconv.Itoa(c.JobID)
		m.Help(MetricCkptTotal, "Committed checkpoints per job.")
		m.Counter(MetricCkptTotal, "job", job).Inc()
		m.Help(MetricCkptBytes, "Last committed checkpoint size per job.")
		m.Gauge(MetricCkptBytes, "job", job).Set(float64(len(s.buf)))
		m.Help(MetricCkptIter, "Last committed checkpoint iteration per job.")
		m.Gauge(MetricCkptIter, "job", job).Set(float64(c.Iter))
		m.Help(MetricCkptLastUnix, "Last checkpoint commit time per job, unix seconds.")
		m.Gauge(MetricCkptLastUnix, "job", job).Set(float64(time.Now().UnixNano()) / 1e9)
		m.Help(MetricFsyncSecs, "fsync latency by durable op.")
		m.Histogram(MetricFsyncSecs, obs.DefBuckets, "op", "checkpoint").
			Observe(time.Since(start).Seconds())
	}
	ev = obs.Evt("durable", "ckpt.commit")
	ev.Job, ev.Iter = c.JobID, c.Iter
	ev.Detail = fmt.Sprintf("bytes=%d", len(s.buf))
	obs.FlightOr(s.opts.Flight).Record(ev)
	return nil
}

// Load returns job jobID's latest checkpoint, (nil, nil) when absent,
// or *CorruptError when the file exists but fails validation — a
// committed checkpoint never half-parses, so corruption here is real
// bit rot, not a torn write.
func (s *DiskStore) Load(jobID int) (*Checkpoint, error) {
	data, err := os.ReadFile(s.path(jobID))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: checkpoint read: %w", err)
	}
	kind, payload, n, err := ScanRecord(data)
	if err != nil {
		if errors.Is(err, errShortRecord) {
			err = &CorruptError{fmt.Errorf("truncated checkpoint file (%d bytes)", len(data))}
		}
		return nil, err
	}
	if kind != RecordCheckpoint {
		return nil, &CorruptError{fmt.Errorf("%s record in checkpoint file", kind)}
	}
	if n != len(data) {
		return nil, &CorruptError{fmt.Errorf("%d trailing bytes after checkpoint record", len(data)-n)}
	}
	c, err := DecodeCheckpoint(payload)
	if err != nil {
		return nil, err
	}
	if c.JobID != jobID {
		return nil, &CorruptError{fmt.Errorf("checkpoint names job %d, file names job %d", c.JobID, jobID)}
	}
	return c, nil
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: dir fsync: %w", err)
	}
	return nil
}
