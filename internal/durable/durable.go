// Package durable is Fela's persistence plane: iteration-boundary
// model checkpoints plus a write-ahead ledger of every manager and
// coordinator decision, both stored as CRC-guarded, versioned binary
// records on local disk.
//
// The two halves split the recovery problem the way Chicle splits the
// elastic hand-off problem: iteration barriers are the only points
// where the model, the optimizer state and the membership are all
// consistent, so checkpoints are taken there (rt.Config.Checkpoint);
// everything that is *not* model state — job arrivals, admission
// verdicts, lease grants, membership churn, barrier commits — is a
// small decision record appended to the ledger and fsynced *before*
// the decision is acknowledged to anyone. Restart is then mechanical:
// the job manager folds the replayed entries through the same apply
// its live decisions use (jobs.NewManager with Config.Durable), loads
// each open job's latest checkpoint, and resumes at the barrier after
// it. Because the coordinator aggregates gradients in canonical token
// order, a resumed run recomputes the uncheckpointed tail
// deterministically and lands bit-identical to a run that never
// crashed — the invariant the recovery chaos suite replays coordinator
// kills against.
//
// Commit ordering rules (DESIGN.md §14):
//
//   - ledger append: encode → write → fsync → acknowledge. A decision
//     that is not on disk never happened.
//   - checkpoint commit: write job-<id>.ckpt.tmp → fsync → rename over
//     job-<id>.ckpt → fsync directory. Readers only ever see the old
//     or the new checkpoint, never a torn one.
//   - replay: a torn or corrupt tail record marks the end of history —
//     the file is truncated at the last good record, never a crash.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"fela/internal/obs"
)

// DefaultEvery is the default checkpoint interval in iterations: every
// DefaultEvery-th barrier (plus the final one) commits a checkpoint.
// The durable benchmark measures checkpoint overhead against this
// default; the ≤10%-of-iteration-time budget is evaluated here.
const DefaultEvery = 10

// Telemetry metric names (internal/obs).
const (
	// MetricCkptTotal counts committed checkpoints per job.
	MetricCkptTotal = "fela_durable_ckpt_total"
	// MetricCkptBytes is the last committed checkpoint's size per job.
	MetricCkptBytes = "fela_durable_ckpt_bytes"
	// MetricCkptIter is the last committed checkpoint's iteration per job.
	MetricCkptIter = "fela_durable_ckpt_iter"
	// MetricCkptLastUnix is the commit wall-clock time per job, in unix
	// seconds — checkpoint age is scrape-time minus this gauge.
	MetricCkptLastUnix = "fela_durable_ckpt_last_unix_seconds"
	// MetricFsyncSecs is the fsync latency histogram by op
	// ("ledger" appends, "checkpoint" commits).
	MetricFsyncSecs = "fela_durable_fsync_seconds"
	// MetricLedgerAppends counts fsynced ledger appends by op.
	MetricLedgerAppends = "fela_durable_ledger_appends_total"
	// MetricLedgerReplayed counts entries replayed at open.
	MetricLedgerReplayed = "fela_durable_ledger_replayed_total"
)

// Options attaches telemetry to a DiskStore, Ledger or Plane. Both fields
// are optional; a nil Flight records into the process-global ring.
type Options struct {
	Metrics *obs.Registry
	Flight  *obs.FlightRecorder
}

// ErrLocked reports that another process holds the durable directory's
// exclusive lock — the signal a -standby server polls against.
var ErrLocked = errors.New("durable: directory locked by another process")

// Plane bundles one durable directory's store, ledger and replayed
// history, guarded by an exclusive lock file so two servers can never
// interleave writes. A warm standby polls Open until the primary's
// death releases the lock.
type Plane struct {
	// Dir is the durable root directory.
	Dir string
	// Store holds the per-job checkpoints (Dir/ckpt).
	Store *DiskStore
	// Ledger is the open write-ahead ledger (Dir/ledger.wal).
	Ledger *Ledger
	// Entries is the history replayed at open, in append order; the
	// job manager folds it to rebuild its state.
	Entries []Entry

	lock *os.File
}

// Open locks dir (creating it if needed), replays its ledger — torn
// tails are truncated, not fatal — and opens the checkpoint store.
// Returns ErrLocked when another process holds the directory.
func Open(dir string, opts Options) (*Plane, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	lock, err := acquireLock(filepath.Join(dir, "LOCK"))
	if err != nil {
		return nil, err
	}
	store, err := NewDiskStore(dir, opts)
	if err != nil {
		releaseLock(lock)
		return nil, err
	}
	led, entries, err := OpenLedger(dir, opts)
	if err != nil {
		releaseLock(lock)
		return nil, err
	}
	return &Plane{Dir: dir, Store: store, Ledger: led, Entries: entries, lock: lock}, nil
}

// Close releases the ledger and the directory lock.
func (p *Plane) Close() error {
	err := p.Ledger.Close()
	releaseLock(p.lock)
	p.lock = nil
	return err
}
