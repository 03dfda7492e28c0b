package durable

// The durable record codec: every byte the persistence plane writes —
// ledger entries and model checkpoints alike — is one self-delimiting
// record. Its 12-byte header is durable's own, with a CRC so bit rot
// and torn writes are detected at replay instead of silently corrupting
// a restore. Its payload's fields are written and read by the
// transport's field codec (AppendString, AppendJobSpec,
// AppendFloatGroup, PayloadReader; DESIGN.md §10), the one home of the
// layout wire frames use too.
//
// Record layout (version 1, DESIGN.md §14):
//
//	offset  size  field
//	0       2     magic 0xD5 0x7A
//	2       1     version (1)
//	3       1     kind (1 = ledger entry, 2 = checkpoint)
//	4       4     payload length N, uint32 little-endian (≤ MaxRecordBytes)
//	8       4     CRC-32C (Castagnoli) over bytes [0,8) and the payload
//	12      N     payload
//
// Entry payload (varint = zig-zag signed, uvarint = unsigned, both
// from encoding/binary; str = uvarint length + bytes):
//
//	uvarint  Seq
//	varint   TS (unix nanoseconds)
//	1B       Op
//	varint   JobID, WID, Iter, N
//	varint   SLO (nanoseconds)
//	1B       OK flag (0 or 1)
//	str      Detail
//	         job spec as transport.AppendJobSpec writes it: a presence
//	         flag (0 or 1), then the spec's fields
//
// Checkpoint payload:
//
//	varint   JobID, Iter
//	         Params, then Vel, each a float group as
//	         transport.AppendFloatGroup writes it: uvarint tensor count;
//	         per tensor a uvarint length, then 4·len bytes of float32
//	         bits, little-endian
//	uvarint  len(Losses); per loss 8 bytes of float64 bits
//
// Decoding is strict: the CRC is checked before any field is read,
// every length is validated against the bytes actually present before
// anything is allocated, and trailing payload bytes are an error.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"fela/internal/transport"
)

const (
	recMagic0  = 0xD5
	recMagic1  = 0x7A
	recVersion = 1
	// recHeader is the fixed prefix: 8 bytes of frame header plus the
	// 4-byte CRC.
	recHeader = 12
)

// MaxRecordBytes bounds one record's payload, mirroring the wire
// codec's frame cap: a garbled length can never force an oversized
// allocation.
const MaxRecordBytes = 1 << 28 // 256 MiB

// RecordKind discriminates the two durable record types.
type RecordKind byte

const (
	// RecordEntry is one write-ahead ledger entry.
	RecordEntry RecordKind = 1
	// RecordCheckpoint is one model checkpoint.
	RecordCheckpoint RecordKind = 2
)

func (k RecordKind) String() string {
	switch k {
	case RecordEntry:
		return "entry"
	case RecordCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// castagnoli is the CRC-32C table shared by encode and decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError marks a record that failed structural validation — bad
// magic, CRC mismatch, malformed field, hostile length. Replay treats
// it as the end of usable history.
type CorruptError struct{ Err error }

func (e *CorruptError) Error() string { return "durable: corrupt record: " + e.Err.Error() }
func (e *CorruptError) Unwrap() error { return e.Err }

// errShortRecord marks a record whose trailing bytes are missing — the
// torn-tail case an interrupted append leaves behind. Unlike
// CorruptError it is recoverable by waiting for (or truncating) the
// tail.
var errShortRecord = fmt.Errorf("durable: record extends past the buffer")

// Op enumerates the decisions the write-ahead ledger records.
type Op byte

const (
	// OpSubmit records an admitted job entering the queue; the entry
	// carries the normalized spec and the submitter's SLO.
	OpSubmit Op = iota + 1
	// OpReject records an admission rejection (Detail = reason).
	OpReject
	// OpCancel records a submitter-requested cancellation.
	OpCancel
	// OpJobStart records a job's first lease bundle (N = workers).
	OpJobStart
	// OpJobDone records a job settling (OK = finished within SLO).
	OpJobDone
	// OpLeaseGrant records N workers leased to a running job.
	OpLeaseGrant
	// OpLeaseRelease records N release requests against a running job.
	OpLeaseRelease
	// OpJoin records a worker registering with the pool or session.
	OpJoin
	// OpLeave records a worker's graceful departure.
	OpLeave
	// OpDrain records the manager or session beginning shutdown.
	OpDrain
	// OpBarrier records a checkpoint committing at an iteration barrier
	// (Iter = the checkpointed iteration).
	OpBarrier
)

var opNames = [...]string{
	OpSubmit: "submit", OpReject: "reject", OpCancel: "cancel",
	OpJobStart: "job.start", OpJobDone: "job.done",
	OpLeaseGrant: "lease.grant", OpLeaseRelease: "lease.release",
	OpJoin: "join", OpLeave: "leave", OpDrain: "drain",
	OpBarrier: "barrier",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// validOp reports whether o is a known ledger operation.
func validOp(o Op) bool { return int(o) >= 1 && int(o) < len(opNames) }

// Entry is one write-ahead ledger record: a manager or coordinator
// decision durably committed before it was acknowledged.
type Entry struct {
	// Seq is the append sequence number, assigned by the ledger.
	Seq uint64
	// TS is the decision's wall-clock time in unix nanoseconds,
	// stamped at append.
	TS int64
	// Op is the decision class.
	Op Op
	// JobID identifies the job the decision concerns (0 = none / the
	// single-session pseudo-job).
	JobID int
	// WID identifies the worker for membership ops (-1 = none).
	WID int
	// Iter is the checkpointed iteration, meaningful only on OpBarrier.
	Iter int
	// N is the op's count operand (workers leased, released, …).
	N int
	// SLO echoes a submission's completion-latency target.
	SLO time.Duration
	// OK carries a verdict (job finished within SLO, …).
	OK bool
	// Detail is a short free-form annotation (rejection reason, …).
	Detail string
	// Spec carries the normalized job spec on OpSubmit (zero = absent).
	Spec transport.JobSpec
}

// Checkpoint is one job's model state at an iteration barrier, taken
// right after the optimizer step so Params and Vel are the post-step
// values: resuming at Iter+1 recomputes exactly what an uninterrupted
// run would have.
type Checkpoint struct {
	// JobID is the owning job (0 for a single-session coordinator).
	JobID int
	// Iter is the last completed iteration this state reflects.
	Iter int
	// Params are the flattened model parameters, one slice per tensor.
	Params [][]float32
	// Vel is the flattened momentum state, parallel to Params.
	Vel [][]float32
	// Losses is the per-iteration loss history through Iter.
	Losses []float64
}

// beginRecord appends the 12-byte header placeholder and returns the
// frame's base offset; finishRecord back-fills length and CRC.
func beginRecord(dst []byte, kind RecordKind) ([]byte, int) {
	base := len(dst)
	dst = append(dst, recMagic0, recMagic1, recVersion, byte(kind),
		0, 0, 0, 0, // payload length
		0, 0, 0, 0) // CRC-32C
	return dst, base
}

func finishRecord(dst []byte, base int) ([]byte, error) {
	payload := len(dst) - base - recHeader
	if payload > MaxRecordBytes {
		return dst[:base], &CorruptError{fmt.Errorf("payload %d exceeds MaxRecordBytes %d", payload, MaxRecordBytes)}
	}
	binary.LittleEndian.PutUint32(dst[base+4:base+8], uint32(payload))
	crc := crc32.Update(0, castagnoli, dst[base:base+8])
	crc = crc32.Update(crc, castagnoli, dst[base+recHeader:])
	binary.LittleEndian.PutUint32(dst[base+8:base+12], crc)
	return dst, nil
}

// AppendEntry encodes e as one durable record appended to dst.
func AppendEntry(dst []byte, e *Entry) []byte {
	dst, base := beginRecord(dst, RecordEntry)
	dst = binary.AppendUvarint(dst, e.Seq)
	dst = binary.AppendVarint(dst, e.TS)
	dst = append(dst, byte(e.Op))
	dst = binary.AppendVarint(dst, int64(e.JobID))
	dst = binary.AppendVarint(dst, int64(e.WID))
	dst = binary.AppendVarint(dst, int64(e.Iter))
	dst = binary.AppendVarint(dst, int64(e.N))
	dst = binary.AppendVarint(dst, int64(e.SLO))
	ok := byte(0)
	if e.OK {
		ok = 1
	}
	dst = append(dst, ok)
	dst = transport.AppendString(dst, e.Detail)
	dst = transport.AppendJobSpec(dst, &e.Spec)
	dst, _ = finishRecord(dst, base) // entries cannot exceed the cap
	return dst
}

// AppendCheckpoint encodes c as one durable record appended to dst.
func AppendCheckpoint(dst []byte, c *Checkpoint) ([]byte, error) {
	dst, base := beginRecord(dst, RecordCheckpoint)
	dst = binary.AppendVarint(dst, int64(c.JobID))
	dst = binary.AppendVarint(dst, int64(c.Iter))
	dst = transport.AppendFloatGroup(dst, c.Params)
	dst = transport.AppendFloatGroup(dst, c.Vel)
	dst = binary.AppendUvarint(dst, uint64(len(c.Losses)))
	for _, l := range c.Losses {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(l))
	}
	return finishRecord(dst, base)
}

// ScanRecord validates the record at the head of data and returns its
// kind, payload view and total encoded size. errShortRecord (via
// errors.Is on the sentinel) means the buffer ends mid-record — the
// torn-tail case; *CorruptError means the bytes can never parse.
func ScanRecord(data []byte) (RecordKind, []byte, int, error) {
	if len(data) < recHeader {
		return 0, nil, 0, errShortRecord
	}
	if data[0] != recMagic0 || data[1] != recMagic1 {
		return 0, nil, 0, &CorruptError{fmt.Errorf("bad magic %#02x %#02x", data[0], data[1])}
	}
	if data[2] != recVersion {
		return 0, nil, 0, &CorruptError{fmt.Errorf("unsupported record version %d", data[2])}
	}
	kind := RecordKind(data[3])
	if kind != RecordEntry && kind != RecordCheckpoint {
		return 0, nil, 0, &CorruptError{fmt.Errorf("unknown record kind %d", data[3])}
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if n > MaxRecordBytes {
		return 0, nil, 0, &CorruptError{fmt.Errorf("payload length %d exceeds MaxRecordBytes %d", n, MaxRecordBytes)}
	}
	total := recHeader + int(n)
	if len(data) < total {
		return 0, nil, 0, errShortRecord
	}
	want := binary.LittleEndian.Uint32(data[8:12])
	crc := crc32.Update(0, castagnoli, data[:8])
	crc = crc32.Update(crc, castagnoli, data[recHeader:total])
	if crc != want {
		return 0, nil, 0, &CorruptError{fmt.Errorf("CRC mismatch: stored %#08x computed %#08x", want, crc)}
	}
	return kind, data[recHeader:total], total, nil
}

// DecodeEntry decodes one ledger-entry payload (from ScanRecord).
func DecodeEntry(payload []byte) (Entry, error) {
	r := transport.NewPayloadReader(payload)
	var e Entry
	e.Seq = r.Uvarint()
	e.TS = r.Varint()
	if op := r.Bytes(1); op != nil {
		if e.Op = Op(op[0]); !validOp(e.Op) {
			r.Fail("unknown ledger op %d", op[0])
		}
	}
	e.JobID = int(r.Varint())
	e.WID = int(r.Varint())
	e.Iter = int(r.Varint())
	e.N = int(r.Varint())
	e.SLO = time.Duration(r.Varint())
	e.OK = r.Flag("OK")
	e.Detail = r.Str()
	e.Spec = r.JobSpec()
	if err := r.Finish(); err != nil {
		return Entry{}, &CorruptError{err}
	}
	return e, nil
}

// DecodeCheckpoint decodes one checkpoint payload (from ScanRecord).
func DecodeCheckpoint(payload []byte) (*Checkpoint, error) {
	r := transport.NewPayloadReader(payload)
	c := &Checkpoint{}
	c.JobID = int(r.Varint())
	c.Iter = int(r.Varint())
	c.Params = r.FloatGroup()
	c.Vel = r.FloatGroup()
	if n := r.Count(8); n > 0 {
		c.Losses = make([]float64, n)
		for i := range c.Losses {
			c.Losses[i] = math.Float64frombits(r.U64())
		}
	}
	if err := r.Finish(); err != nil {
		return nil, &CorruptError{err}
	}
	return c, nil
}

// DecodeRecord scans and decodes the record at the head of data,
// returning an Entry or *Checkpoint plus the encoded size — the
// convenience path golden tests and diagnostics use.
func DecodeRecord(data []byte) (any, int, error) {
	kind, payload, n, err := ScanRecord(data)
	if err != nil {
		return nil, 0, err
	}
	switch kind {
	case RecordEntry:
		e, err := DecodeEntry(payload)
		if err != nil {
			return nil, 0, err
		}
		return e, n, nil
	default:
		c, err := DecodeCheckpoint(payload)
		if err != nil {
			return nil, 0, err
		}
		return c, n, nil
	}
}
