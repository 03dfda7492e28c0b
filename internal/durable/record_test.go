package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fela/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed durable golden records")

// sampleEntries returns one representative ledger entry per op.
func sampleEntries() []Entry {
	return []Entry{
		{Seq: 1, TS: 1700000000000000001, Op: OpSubmit, JobID: 1, WID: -1,
			SLO: 30 * time.Second, Detail: "tenant=acme",
			Spec: transport.JobSpec{
				Name: "big", Model: "mlp-small", Seed: 11, Iterations: 30,
				TotalBatch: 128, TokenBatch: 8, LR: 0.05, Momentum: 0.5,
				MinWorkers: 1, MaxWorkers: 4, Priority: 2,
			}},
		{Seq: 2, TS: 1700000000000000002, Op: OpReject, JobID: 2, WID: -1, Detail: "queue full"},
		{Seq: 3, TS: 1700000000000000003, Op: OpCancel, JobID: 1, WID: -1},
		{Seq: 4, TS: 1700000000000000004, Op: OpJobStart, JobID: 3, WID: -1, N: 2},
		{Seq: 5, TS: 1700000000000000005, Op: OpJobDone, JobID: 3, WID: -1, OK: true, Detail: "loss=0.25"},
		{Seq: 6, TS: 1700000000000000006, Op: OpLeaseGrant, JobID: 3, WID: -1, N: 1},
		{Seq: 7, TS: 1700000000000000007, Op: OpLeaseRelease, JobID: 3, WID: -1, N: 1},
		{Seq: 8, TS: 1700000000000000008, Op: OpJoin, JobID: 0, WID: 4},
		{Seq: 9, TS: 1700000000000000009, Op: OpLeave, JobID: 0, WID: 4},
		{Seq: 10, TS: 1700000000000000010, Op: OpDrain, WID: -1},
		{Seq: 11, TS: 1700000000000000011, Op: OpBarrier, JobID: 3, WID: -1, Iter: 9},
	}
}

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		JobID:  3,
		Iter:   9,
		Params: [][]float32{{1.5, -2.25, 0.125}, {3, 1, 4, 1, 5}, {-0.5}},
		Vel:    [][]float32{{0.25, 0, -1}, {0, 0, 0, 0, 0}, {2}},
		Losses: []float64{0.9, 0.75, 0.6, 0.5, 0.44, 0.4, 0.37, 0.35, 0.34, 0.33},
	}
}

func TestEntryRoundTripAllOps(t *testing.T) {
	ents := sampleEntries()
	if len(ents) != int(OpBarrier) {
		t.Fatalf("sampleEntries covers %d ops, ledger has %d", len(ents), OpBarrier)
	}
	for _, e := range ents {
		data := AppendEntry(nil, &e)
		got, n, err := DecodeRecord(data)
		if err != nil {
			t.Fatalf("%v: decode: %v", e.Op, err)
		}
		if n != len(data) {
			t.Fatalf("%v: decode consumed %d of %d bytes", e.Op, n, len(data))
		}
		dec, ok := got.(Entry)
		if !ok {
			t.Fatalf("%v: decoded %T, want Entry", e.Op, got)
		}
		if !reflect.DeepEqual(dec, e) {
			t.Fatalf("%v: round trip mangled:\n in %+v\nout %+v", e.Op, e, dec)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	data, err := AppendCheckpoint(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeRecord(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(data) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(data))
	}
	dec, ok := got.(*Checkpoint)
	if !ok {
		t.Fatalf("decoded %T, want *Checkpoint", got)
	}
	if !reflect.DeepEqual(dec, c) {
		t.Fatalf("round trip mangled:\n in %+v\nout %+v", c, dec)
	}
}

func TestCheckpointEmptyRoundTrip(t *testing.T) {
	c := &Checkpoint{JobID: 1, Iter: 0}
	data, err := AppendCheckpoint(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := func() (*Checkpoint, error) {
		_, payload, _, err := ScanRecord(data)
		if err != nil {
			return nil, err
		}
		return DecodeCheckpoint(payload)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if dec.JobID != 1 || dec.Iter != 0 || dec.Params != nil || dec.Vel != nil || dec.Losses != nil {
		t.Fatalf("empty checkpoint mangled: %+v", dec)
	}
}

// TestDurableGoldenRecords locks the on-disk format byte-for-byte: one
// committed golden record per ledger op plus one checkpoint. A
// mismatch is a storage format break — bump recVersion and regenerate
// with `go test ./internal/durable/ -run Golden -update`.
func TestDurableGoldenRecords(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, data []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		if *updateGolden {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden record (regenerate with -update): %v", name, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: encoded record differs from committed golden (%d vs %d bytes) — storage format changed without a version bump", name, len(data), len(want))
		}
	}
	for _, e := range sampleEntries() {
		check("entry-"+e.Op.String()+".rec", AppendEntry(nil, &e))
	}
	ckpt, err := AppendCheckpoint(nil, sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	check("checkpoint.rec", ckpt)
}

// TestRecordTruncationErrors: every strict prefix of a valid record
// must scan to errShortRecord — the torn-tail signal — never a panic,
// a corruption verdict, or a silent success.
func TestRecordTruncationErrors(t *testing.T) {
	ckpt, err := AppendCheckpoint(nil, sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	records := [][]byte{ckpt}
	for _, e := range sampleEntries() {
		records = append(records, AppendEntry(nil, &e))
	}
	for _, data := range records {
		for cut := 0; cut < len(data); cut++ {
			_, _, _, err := ScanRecord(data[:cut])
			if err == nil {
				t.Fatalf("truncation at %d/%d scanned without error", cut, len(data))
			}
			if !errors.Is(err, errShortRecord) {
				t.Fatalf("truncation at %d/%d: got %v, want errShortRecord", cut, len(data), err)
			}
		}
	}
}

// TestRecordBitFlipDetected: flipping any single byte of a valid
// record must yield an error — the CRC catches payload and header
// damage alike. (A flip in the length field can also read as a short
// record, which replay likewise refuses to apply.)
func TestRecordBitFlipDetected(t *testing.T) {
	e := sampleEntries()[0]
	data := AppendEntry(nil, &e)
	for i := range data {
		for _, bit := range []byte{0x01, 0x80} {
			mut := bytes.Clone(data)
			mut[i] ^= bit
			if _, err := decodeAll(mut); err == nil {
				t.Fatalf("bit flip at byte %d (mask %#02x) decoded without error", i, bit)
			}
		}
	}
}

// decodeAll scans and decodes every record in data, failing on the
// first error — the strictest read path, used to assert damage is
// never silently absorbed.
func decodeAll(data []byte) ([]any, error) {
	var out []any
	for len(data) > 0 {
		v, n, err := DecodeRecord(data)
		if err != nil {
			return out, err
		}
		out = append(out, v)
		data = data[n:]
	}
	return out, nil
}

func TestScanRejectsHostileLength(t *testing.T) {
	e := sampleEntries()[1]
	data := AppendEntry(nil, &e)
	// Claim a payload just past the cap; the scanner must refuse before
	// ever allocating.
	copy(data[4:8], []byte{0x01, 0x00, 0x00, 0x10}) // 1<<28 + 1
	_, _, _, err := ScanRecord(data)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("hostile length: got %v, want CorruptError", err)
	}
	if msg := ce.Error(); msg != "durable: corrupt record: "+ce.Err.Error() {
		t.Fatalf("CorruptError reads %q", msg)
	}
}

func TestCheckpointOverCapRefused(t *testing.T) {
	// A checkpoint whose encoding would exceed MaxRecordBytes must be
	// refused at encode time, not written as an undecodable record.
	huge := &Checkpoint{JobID: 1, Iter: 1, Params: [][]float32{make([]float32, MaxRecordBytes/4+16)}}
	if _, err := AppendCheckpoint(nil, huge); err == nil {
		t.Fatal("over-cap checkpoint encoded without error")
	}
}

func TestEntrySpecialFloats(t *testing.T) {
	c := &Checkpoint{
		JobID:  1,
		Iter:   0,
		Params: [][]float32{{float32(math.Inf(1)), float32(math.NaN()), -0}},
		Losses: []float64{math.Inf(-1), math.NaN()},
	}
	data, err := AppendCheckpoint(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	dec := got.(*Checkpoint)
	if !math.IsInf(float64(dec.Params[0][0]), 1) || !math.IsNaN(float64(dec.Params[0][1])) {
		t.Fatalf("special float32s mangled: %v", dec.Params[0])
	}
	if !math.IsInf(dec.Losses[0], -1) || !math.IsNaN(dec.Losses[1]) {
		t.Fatalf("special float64s mangled: %v", dec.Losses)
	}
}

// TestDecodeRejectsMalformedPayloads: a record whose CRC is valid but
// one of whose fields is not must fail as *CorruptError, never as a
// transport codec error, and never panic. ScanRecord passes every case,
// so each one reaches the field reader.
func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	// entryHead is an entry payload up to and including its OK flag.
	entryHead := func(op Op, ok byte) []byte {
		p := binary.AppendUvarint(nil, 1) // Seq
		p = binary.AppendVarint(p, 2)     // TS
		p = append(p, byte(op))
		for range 5 { // JobID, WID, Iter, N, SLO
			p = binary.AppendVarint(p, 0)
		}
		return append(p, ok)
	}
	// ckptHead is a checkpoint payload up to its JobID and Iter.
	ckptHead := binary.AppendVarint(binary.AppendVarint(nil, 3), 9)
	cases := []struct {
		name    string
		kind    RecordKind
		payload []byte
	}{
		{"tensor count past the end", RecordCheckpoint,
			binary.AppendUvarint(bytes.Clone(ckptHead), 1000)},
		{"tensor length past the end", RecordCheckpoint,
			append(binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(ckptHead), 1), 1000), 0, 0, 0, 0)},
		{"loss count past the end", RecordCheckpoint,
			append(binary.AppendUvarint(append(bytes.Clone(ckptHead), 0, 0), 5), make([]byte, 8)...)},
		{"loss count overflowing a byte count", RecordCheckpoint,
			append(binary.AppendUvarint(append(bytes.Clone(ckptHead), 0, 0), 1<<61+1), make([]byte, 8)...)},
		{"checkpoint trailing bytes", RecordCheckpoint,
			append(bytes.Clone(ckptHead), 0, 0, 0, 0xff)},
		{"string length past the end", RecordEntry,
			append(binary.AppendUvarint(entryHead(OpReject, 0), 50), "abc"...)},
		{"job-spec flag 2", RecordEntry, append(entryHead(OpSubmit, 0), 0, 2)},
		{"OK flag 2", RecordEntry, append(entryHead(OpJobDone, 2), 0, 0)},
		{"unknown op", RecordEntry, append(entryHead(Op(len(opNames)), 0), 0, 0)},
		{"entry trailing bytes", RecordEntry, append(entryHead(OpDrain, 0), 0, 0, 0xff)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, base := beginRecord(nil, tc.kind)
			data, err := finishRecord(append(data, tc.payload...), base)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := ScanRecord(data); err != nil {
				t.Fatalf("scan refused the record before any field was read: %v", err)
			}
			v, _, err := DecodeRecord(data)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("decoded %+v, %v; want *CorruptError", v, err)
			}
			if transport.Classify(err) == transport.ClassCodec {
				t.Fatalf("%v classifies as a transport codec error", err)
			}
		})
	}
}
