package transport

// The binary wire codec: a versioned, length-prefixed frame format with
// hand-rolled field encoding and bulk little-endian float payloads. It
// exists because the hot path of a training session is dominated by two
// message families — the per-iteration parameter broadcast (KindIterStart)
// and the per-token gradient report (KindReport) — whose payloads are
// megabytes of float32. The codec moves a float section as raw bytes,
// because on a little-endian host a float32's memory already is the
// wire's byte order. A section of viewFloats or more crosses user space
// without a copy: tcpConn.Send writes it by writev straight from the
// sender's slice, and Recv hands it out as an aligned view of the frame
// buffer it was read into. A smaller section is one memmove from and
// into pooled buffers. So the wire path stays bandwidth-bound instead of
// codec- and GC-bound.
//
// Frame layout (version 1, DESIGN.md §10):
//
//	offset  size  field
//	0       2     magic 0xFE 0x7A
//	2       1     version (1)
//	3       1     kind (Kind as one byte)
//	4       4     payload length N, uint32 little-endian (≤ MaxFrameBytes)
//	8       N     payload
//
// Payload (fields in fixed order; varint = zig-zag signed varint,
// uvarint = unsigned varint, both from encoding/binary):
//
//	varint   WID
//	varint   Iter
//	varint   Token.ID, Token.Seq, Token.Lo, Token.Hi, Token.Owner
//	8B       Loss (float64 bits, little-endian)
//	uvarint  len(Grads);  per slice: uvarint length, then 4·len bytes
//	         of float32 bits, little-endian
//	uvarint  len(Params); same encoding as Grads
//	uvarint  len(Err), then the bytes
//	1B       job-spec presence flag (0 or 1); if 1:
//	           uvarint len(Name)+bytes, uvarint len(Model)+bytes,
//	           varint Seed, Iterations, TotalBatch, TokenBatch,
//	           4B LR, 4B Momentum (float32 bits),
//	           varint MinWorkers, MaxWorkers, Priority
//	varint   JobID
//	8B + 8B  Span.TraceID, Span.SpanID (uint64, little-endian)
//
// A report whose weight gradients travel as rank-1 factors
// (Rank1Section) is a version-3 frame: the header of version 1 with
// version byte 3, and the payload of version 1 except for the Grads
// group, each of whose sections is its dense length and a float group:
//
//	uvarint  len(Grads); per section: uvarint dense length n, then a
//	         group as Params is encoded, of one slice (the n floats of
//	         a dense section) or two (x and δ of a rank-1 section;
//	         |x| ≥ 1, |δ| ≥ 1, |x|·|δ| = n)
//
// A decoder that predates version 3 refuses the version byte as a codec
// error instead of misreading the group, and a report without rank-1
// sections is still version 1, byte for byte.
//
// Decoding is strict: every length is validated against the bytes that
// are actually present before anything is allocated, so a corrupted or
// hostile length can never cause an oversized allocation — it returns a
// *CodecError (ClassCodec) instead. Decoded float payloads live in
// pooled arenas or in the received frame, and a top-k grads section
// stays as the frame's bytes (TopKSection); see Message.Release for the
// ownership rule.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"
	"unsafe"

	"fela/internal/obs"
)

// CodecBinary names the frame format above: the value of the codec
// metric label, and the one codec ListenCodec and DialCodec accept.
const CodecBinary = "binary"

const (
	frameMagic0  = 0xFE
	frameMagic1  = 0x7A
	frameVersion = 1
	frameHeader  = 8

	// Version-2 frames exist only to carry a non-exact gradient codec:
	// same first 8 bytes (version byte = 2), then the codec id and 3
	// reserved zero bytes. Exact-mode frames are always emitted as
	// version 1, so compression never changes a byte of the default
	// wire format.
	frameVersion2 = 2
	frameHeaderV2 = 12

	// Version-3 frames are exact version-1 frames whose grads group
	// carries rank-1 sections (see the layout above).
	frameVersionRank1 = 3
)

// MaxFrameBytes bounds one frame's payload. A length field beyond it is
// rejected before any allocation happens, so a garbled or hostile header
// cannot make the decoder reserve unbounded memory.
const MaxFrameBytes = 1 << 28 // 256 MiB

// viewFloats is the one threshold of the zero-copy float path: an exact
// section of at least this many floats (64 KiB, maxHeldBytes) leaves a
// tcpConn by writev from the sender's slice and arrives as a view of
// the receiver's frame buffer. A frame carrying one is never held for
// SetMore.
const viewFloats = maxHeldBytes / 4

// Telemetry metric names for codec work (the instrumented-conn traffic
// metrics live in instrument.go). Encode ops count actual
// serializations, so a cached broadcast frame fanned out to N workers
// still counts once — the property the encode-once test asserts.
const (
	// MetricCodecOps counts encode/decode invocations by op, codec and
	// message kind.
	MetricCodecOps = "fela_transport_codec_ops_total"
	// MetricCodecBytes counts encoded/decoded wire bytes by op and codec.
	MetricCodecBytes = "fela_transport_codec_bytes_total"
	// MetricCodecSecs is the encode/decode latency histogram by op and
	// codec.
	MetricCodecSecs = "fela_transport_codec_seconds"
	// MetricCompressRawBytes counts dense gradient bytes (4 per float)
	// entering the gradient codec, by op and compression name.
	MetricCompressRawBytes = "fela_transport_compress_raw_bytes_total"
	// MetricCompressWireBytes counts the encoded grads-section bytes
	// those gradients became on the wire, by op and compression name.
	MetricCompressWireBytes = "fela_transport_compress_wire_bytes_total"
	// MetricCompressRatio is the cumulative raw/wire ratio per
	// compression name (≈1 for exact, ≈2 for fp16, ≈4 for int8, ≈5–6
	// for topk).
	MetricCompressRatio = "fela_transport_compress_ratio"
)

// codecStats caches the codec instruments per kind so the hot path never
// touches the registry's locked maps. A nil *codecStats disables
// recording entirely.
type codecStats struct {
	encOps, decOps     []*obs.Counter // indexed by kind; last slot catches unknown kinds
	encBytes, decBytes *obs.Counter
	encSecs, decSecs   *obs.Histogram

	// Gradient-compression accounting, indexed by Compression then op
	// (0 = encode, 1 = decode). Recorded only for frames that actually
	// carry gradients, so handshake and broadcast frames don't skew the
	// ratio.
	compRaw, compWire [compressCount][2]*obs.Counter
	compRatio         [compressCount]*obs.Gauge
}

func newCodecStats(reg *obs.Registry) *codecStats {
	if reg == nil {
		return nil
	}
	reg.Help(MetricCodecOps, "Codec encode/decode invocations by op, codec and message kind.")
	reg.Help(MetricCodecBytes, "Wire bytes encoded/decoded by op and codec.")
	reg.Help(MetricCodecSecs, "Codec encode/decode latency in seconds by op and codec.")
	const codec = CodecBinary
	s := &codecStats{
		encOps:   make([]*obs.Counter, len(kindNames)+1),
		decOps:   make([]*obs.Counter, len(kindNames)+1),
		encBytes: reg.Counter(MetricCodecBytes, "op", "encode", "codec", codec),
		decBytes: reg.Counter(MetricCodecBytes, "op", "decode", "codec", codec),
		encSecs:  reg.Histogram(MetricCodecSecs, nil, "op", "encode", "codec", codec),
		decSecs:  reg.Histogram(MetricCodecSecs, nil, "op", "decode", "codec", codec),
	}
	for k := 0; k <= len(kindNames); k++ {
		name := "unknown"
		if k < len(kindNames) {
			name = Kind(k).String()
		}
		s.encOps[k] = reg.Counter(MetricCodecOps, "op", "encode", "codec", codec, "kind", name)
		s.decOps[k] = reg.Counter(MetricCodecOps, "op", "decode", "codec", codec, "kind", name)
	}
	reg.Help(MetricCompressRawBytes, "Dense gradient bytes entering the gradient codec by op and compression.")
	reg.Help(MetricCompressWireBytes, "Encoded grads-section wire bytes by op and compression.")
	reg.Help(MetricCompressRatio, "Cumulative gradient compression ratio (raw/wire) per compression.")
	for c := range s.compRatio {
		name := Compression(c).String()
		s.compRaw[c][0] = reg.Counter(MetricCompressRawBytes, "op", "encode", "compression", name)
		s.compRaw[c][1] = reg.Counter(MetricCompressRawBytes, "op", "decode", "compression", name)
		s.compWire[c][0] = reg.Counter(MetricCompressWireBytes, "op", "encode", "compression", name)
		s.compWire[c][1] = reg.Counter(MetricCompressWireBytes, "op", "decode", "compression", name)
		s.compRatio[c] = reg.Gauge(MetricCompressRatio, "compression", name)
	}
	return s
}

// gradInfo summarizes one frame's gradient payload for the compression
// telemetry: the dense size the Grads slices represent and the wire
// bytes their encoded section occupied. raw == 0 means the frame
// carried no gradients.
type gradInfo struct {
	codec Compression
	raw   int
	wire  int
}

// compressed records one encode (op 0) or decode (op 1) of a
// gradient-bearing frame and refreshes the codec's cumulative ratio
// gauge.
func (s *codecStats) compressed(op int, gi gradInfo) {
	if s == nil || gi.raw == 0 || !gi.codec.Valid() {
		return
	}
	raw, wire := s.compRaw[gi.codec][op], s.compWire[gi.codec][op]
	raw.Add(int64(gi.raw))
	wire.Add(int64(gi.wire))
	rawTot := s.compRaw[gi.codec][0].Value() + s.compRaw[gi.codec][1].Value()
	wireTot := s.compWire[gi.codec][0].Value() + s.compWire[gi.codec][1].Value()
	if wireTot > 0 {
		s.compRatio[gi.codec].Set(float64(rawTot) / float64(wireTot))
	}
}

func (s *codecStats) slot(k Kind) int {
	if k >= 0 && int(k) < len(kindNames) {
		return int(k)
	}
	return len(kindNames)
}

func (s *codecStats) encoded(k Kind, n int, start time.Time) {
	if s == nil {
		return
	}
	s.encOps[s.slot(k)].Inc()
	s.encBytes.Add(int64(n))
	s.encSecs.Observe(time.Since(start).Seconds())
}

func (s *codecStats) decoded(k Kind, n int, start time.Time) {
	if s == nil {
		return
	}
	s.decOps[s.slot(k)].Inc()
	s.decBytes.Add(int64(n))
	s.decSecs.Observe(time.Since(start).Seconds())
}

// framePool recycles encode scratch space, recvPools inbound frame
// buffers. They are kept apart because a Send that cuts its large
// sections needs only small scratch, while a received frame is as large
// as the frame: from one pool, Sends would take the large buffers and
// Recv would allocate new ones. For the same reason inbound buffers come
// in two classes, up to smallFrame bytes and above: a report of rank-1
// factors or a control frame drawing a parameter-sized buffer would
// leave the next iter-start to allocate its own.
var (
	framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
	recvPools = [2]sync.Pool{{New: newRecvBuf}, {New: newRecvBuf}}
)

func newRecvBuf() any { b := make([]byte, 0, 4096); return &b }

// smallFrame is the largest inbound frame buffer of the small class.
const smallFrame = maxHeldBytes

// recvClass is the recvPools class of an n-byte buffer.
func recvClass(n int) int {
	if n <= smallFrame {
		return 0
	}
	return 1
}

// recvCap is the capacity of a new inbound buffer for an n-byte need.
// A small one is rounded up to a power of two. A large one — up to an
// iter-start, a whole model — fits the frame with an eighth to spare,
// not the up to twice the frame of a power of two: a stream of frames
// of one size reuses it, and top-k reports, whose size varies by a few
// per cent from token to token, outgrow it rarely, each time by at
// least an eighth.
func recvCap(n int) int {
	if n <= smallFrame {
		return 1 << bits.Len(uint(n-1))
	}
	return n + n/8
}

// getRecvBuf returns a pooled inbound buffer of the class an n-byte
// frame needs, empty and possibly smaller than n.
func getRecvBuf(n int) *[]byte { return recvPools[recvClass(n)].Get().(*[]byte) }

// putRecvBuf returns an inbound frame buffer, if any, to its class.
func putRecvBuf(bp *[]byte) {
	if bp != nil {
		*bp = (*bp)[:0]
		recvPools[recvClass(cap(*bp))].Put(bp)
	}
}

// floatPool recycles the flat arenas decoded Grads/Params slices are
// carved from. One Get per decoded message, returned by
// Message.Release.
var floatPool = sync.Pool{New: func() any { s := make([]float32, 0, 1024); return &s }}

func getFloatArena(n int) *[]float32 {
	sp := floatPool.Get().(*[]float32)
	if cap(*sp) < n {
		s := make([]float32, 0, 1<<bits.Len(uint(n-1)))
		*sp = s
	}
	*sp = (*sp)[:0]
	return sp
}

// Release returns the message's pooled float backing to the codec pools
// and clears Grads, Params and TopK. That backing is the arena the
// copied float sections were carved from and, for a message received on
// a conn or a top-k one from DecodeBinary, the frame buffer its large
// sections and its top-k sections are views of. Only the decoder
// attaches pooled backing, so Release is a safe no-op on messages built
// by hand or shared by a Broadcast snapshot. Ownership rule: the
// goroutine that consumed the payload — the coordinator after folding a
// report into its accumulator (late, for a report parked behind a lower
// seq), the worker after installing broadcast parameters — calls
// Release exactly once; the Grads, Params and TopK sections must not be
// used afterwards, because the next frame may be read into the same
// buffer. Messages that are never released are simply garbage
// collected.
func (m *Message) Release() {
	if m == nil || (m.pooled == nil && m.frame == nil) {
		return
	}
	p, f := m.pooled, m.frame
	m.pooled, m.frame = nil, nil
	m.Grads, m.Params, m.topk, m.rank1 = nil, nil, nil, nil
	if p != nil {
		floatPool.Put(p)
	}
	putRecvBuf(f)
}

// nativeLittleEndian reports whether this host stores a float32 in the
// wire's byte order, which makes a float section's bytes its memory.
var nativeLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// floatBytes is fs's memory viewed as bytes.
func floatBytes(fs []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(fs))), 4*len(fs))
}

// appendFloats appends fs as little-endian float32 bits: one memmove on
// little-endian hosts, putFloats elsewhere.
func appendFloats(dst []byte, fs []float32) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 4*len(fs))[:off+4*len(fs)]
	if nativeLittleEndian {
		copy(dst[off:], floatBytes(fs))
	} else {
		putFloats(dst[off:], fs)
	}
	return dst
}

// putFloats and getFloats are the per-element float section codec: the
// big-endian path, and the oracle the memmove is tested against.
func putFloats(dst []byte, fs []float32) {
	for i, f := range fs {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(f))
	}
}

func getFloats(dst []float32, src []byte) {
	for j := range dst {
		dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*j:]))
	}
}

// floatCut is a float section left out of an encoded frame: its bytes
// belong on the wire at offset off of the encoded bytes.
type floatCut struct {
	off int
	fs  []float32
}

// appendSlices appends one [][]float32 group. With a cut list, each
// section of viewFloats or more is recorded there instead of copied.
func appendSlices(dst []byte, ss [][]float32, cuts *[]floatCut) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		if cuts != nil && len(s) >= viewFloats {
			*cuts = append(*cuts, floatCut{len(dst), s})
			continue
		}
		dst = appendFloats(dst, s)
	}
	return dst
}

// cutBytes is the wire size of the sections in the cut list.
func cutBytes(cuts *[]floatCut) int {
	if cuts == nil {
		return 0
	}
	n := 0
	for _, c := range *cuts {
		n += 4 * len(c.fs)
	}
	return n
}

// AppendFloatGroup appends one [][]float32 group, every section in
// place: the float-group encoding durable checkpoints share with frames.
func AppendFloatGroup(dst []byte, ss [][]float32) []byte { return appendSlices(dst, ss, nil) }

// AppendString appends s as a uvarint length and its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendJobSpec appends s as a presence flag — 0 for the zero spec,
// else 1 and its fields in declaration order — the one job-spec layout
// of frames and durable ledger entries.
func AppendJobSpec(dst []byte, s *JobSpec) []byte {
	if *s == (JobSpec{}) {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = AppendString(dst, s.Name)
	dst = AppendString(dst, s.Model)
	dst = binary.AppendVarint(dst, s.Seed)
	dst = binary.AppendVarint(dst, int64(s.Iterations))
	dst = binary.AppendVarint(dst, int64(s.TotalBatch))
	dst = binary.AppendVarint(dst, int64(s.TokenBatch))
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(s.LR))
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(s.Momentum))
	dst = binary.AppendVarint(dst, int64(s.MinWorkers))
	dst = binary.AppendVarint(dst, int64(s.MaxWorkers))
	return binary.AppendVarint(dst, int64(s.Priority))
}

// AppendFrame encodes m as one binary wire frame appended to dst
// (which may be nil). The hot path passes pooled scratch buffers here;
// EncodeBinary is the allocating convenience wrapper.
func AppendFrame(dst []byte, m *Message) ([]byte, error) {
	out, _, err := appendFrameMeta(dst, m, nil)
	return out, err
}

// appendFrameMeta is AppendFrame plus the gradient-payload accounting
// the compression telemetry records (gradInfo.raw == 0 when the frame
// carries no gradients). A non-nil cuts, empty on entry, makes it
// leave every exact section of viewFloats or more out of dst and append
// it to *cuts; the header and gradInfo count those bytes as if they
// were in place. A big-endian host cuts nothing: its wire bytes are not
// its memory.
func appendFrameMeta(dst []byte, m *Message, cuts *[]floatCut) ([]byte, gradInfo, error) {
	var gi gradInfo
	if m.Kind < 0 || m.Kind > 255 {
		return dst, gi, &CodecError{fmt.Errorf("kind %d does not fit the wire's kind byte", int(m.Kind))}
	}
	if !m.gradCodec.Valid() {
		return dst, gi, &CodecError{fmt.Errorf("unknown gradient codec %d", uint8(m.gradCodec))}
	}
	if !nativeLittleEndian {
		cuts = nil
	}
	version := byte(frameVersion)
	if m.rank1 != nil {
		if err := m.checkRank1(); err != nil {
			return dst, gi, err
		}
		version = frameVersionRank1
	}
	base := len(dst)
	header := frameHeader
	if m.gradCodec == CompressExact {
		dst = append(dst, frameMagic0, frameMagic1, version, byte(m.Kind), 0, 0, 0, 0)
	} else {
		header = frameHeaderV2
		dst = append(dst, frameMagic0, frameMagic1, frameVersion2, byte(m.Kind), 0, 0, 0, 0,
			byte(m.gradCodec), 0, 0, 0)
	}
	dst = binary.AppendVarint(dst, int64(m.WID))
	dst = binary.AppendVarint(dst, int64(m.Iter))
	dst = binary.AppendVarint(dst, int64(m.Token.ID))
	dst = binary.AppendVarint(dst, int64(m.Token.Seq))
	dst = binary.AppendVarint(dst, int64(m.Token.Lo))
	dst = binary.AppendVarint(dst, int64(m.Token.Hi))
	dst = binary.AppendVarint(dst, int64(m.Token.Owner))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Loss))
	gradStart := len(dst)
	switch {
	case m.rank1 != nil:
		dst = appendRank1Slices(dst, m.Grads, *m.rank1, cuts)
	case m.gradCodec == CompressExact:
		dst = appendSlices(dst, m.Grads, cuts)
	case m.topk != nil:
		dst = appendTopKSections(dst, m.topk)
	default:
		dst = appendCompressedSlices(dst, m.Grads, m.gradCodec)
	}
	gi.codec = m.gradCodec
	gi.wire = len(dst) - gradStart + cutBytes(cuts)
	gi.raw = m.gradFloats() * 4
	dst = appendSlices(dst, m.Params, cuts)
	dst = AppendString(dst, m.Err)
	dst = AppendJobSpec(dst, &m.Job)
	dst = binary.AppendVarint(dst, int64(m.JobID))
	dst = binary.LittleEndian.AppendUint64(dst, m.Span.TraceID)
	dst = binary.LittleEndian.AppendUint64(dst, m.Span.SpanID)
	payload := len(dst) - base - header + cutBytes(cuts)
	if payload > MaxFrameBytes {
		if cuts != nil {
			*cuts = (*cuts)[:0]
		}
		return dst[:base], gi, &CodecError{fmt.Errorf("payload %d exceeds MaxFrameBytes %d", payload, MaxFrameBytes)}
	}
	binary.LittleEndian.PutUint32(dst[base+4:base+8], uint32(payload))
	return dst, gi, nil
}

// EncodeBinary renders one message in the binary wire format (golden
// tests, corpus generation, broadcast caching, diagnostics).
func EncodeBinary(m *Message) ([]byte, error) {
	return AppendFrame(nil, m)
}

// EncodeBinaryPooled encodes m into scratch space drawn from the shared
// frame pool — the allocation-free path tcpConn.Send runs. The caller
// owns the returned frame until it hands it back with ReleaseFrame.
func EncodeBinaryPooled(m *Message) ([]byte, error) {
	bp := framePool.Get().(*[]byte)
	buf, err := AppendFrame((*bp)[:0], m)
	if err != nil {
		*bp = buf[:0]
		framePool.Put(bp)
		return nil, err
	}
	return buf, nil
}

// ReleaseFrame returns a frame obtained from EncodeBinaryPooled to the
// pool. The caller must not touch the slice afterwards.
func ReleaseFrame(buf []byte) {
	b := buf[:0]
	framePool.Put(&b)
}

// Short-header errors are made once: recvBinary meets the v2 one on
// every compressed frame, and frameBuffered the other whenever the next
// frame has not begun to arrive.
var (
	errShortHeader   = &CodecError{fmt.Errorf("frame shorter than %d-byte header", frameHeader)}
	errShortHeaderV2 = &CodecError{fmt.Errorf("frame shorter than %d-byte v2 header", frameHeaderV2)}
)

// frameHead is what a frame header says: its size, the gradient codec,
// whether the grads group may carry rank-1 sections (version 3), and
// the payload length.
type frameHead struct {
	size  int
	codec Compression
	rank1 bool
	n     int
}

// parseHeader is the one check of a frame header, at the front of hdr:
// magic, version, the v2 codec id and reserved bytes, and the length
// cap. A version-2 header given only its first frameHeader bytes fails
// with errShortHeaderV2, so a stream reader can read the rest and call
// again.
func parseHeader(hdr []byte) (h frameHead, err error) {
	if len(hdr) < frameHeader {
		return h, errShortHeader
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return h, &CodecError{fmt.Errorf("bad magic %#02x %#02x", hdr[0], hdr[1])}
	}
	switch hdr[2] {
	case frameVersion, frameVersionRank1:
		h.size, h.codec, h.rank1 = frameHeader, CompressExact, hdr[2] == frameVersionRank1
	case frameVersion2:
		if len(hdr) < frameHeaderV2 {
			return h, errShortHeaderV2
		}
		h.size, h.codec = frameHeaderV2, Compression(hdr[8])
		if h.codec == CompressExact || !h.codec.Valid() {
			return h, &CodecError{fmt.Errorf("bad gradient codec id %d in v2 header", hdr[8])}
		}
		if hdr[9] != 0 || hdr[10] != 0 || hdr[11] != 0 {
			return h, &CodecError{fmt.Errorf("nonzero reserved bytes in v2 header")}
		}
	default:
		return h, &CodecError{fmt.Errorf("unsupported frame version %d", hdr[2])}
	}
	ln := binary.LittleEndian.Uint32(hdr[4:8])
	if ln > MaxFrameBytes {
		return h, &CodecError{fmt.Errorf("payload length %d exceeds MaxFrameBytes %d", ln, MaxFrameBytes)}
	}
	h.n = int(ln)
	return h, nil
}

// DecodeBinary decodes one complete binary frame. Truncated, corrupted
// or oversized-length input returns a *CodecError (never panics, never
// allocates beyond the bytes actually present). The returned message's
// float payloads are pooled, and a top-k one keeps a pooled copy of the
// frame; see Message.Release.
func DecodeBinary(data []byte) (*Message, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if h.n != len(data)-h.size {
		return nil, &CodecError{fmt.Errorf("payload length %d does not match %d frame bytes", h.n, len(data)-h.size)}
	}
	var frame *[]byte
	payload := data[h.size:]
	if h.codec == CompressTopK {
		// Top-k sections view the payload they arrived in, so they get a
		// pooled copy: the message never aliases data.
		frame = getRecvBuf(len(payload))
		*frame = append((*frame)[:0], payload...)
		payload = *frame
	}
	m, _, err := decodePayloadMeta(Kind(data[3]), h, payload, frame)
	return m, err
}

// PayloadReader walks one payload with sticky error state: the field
// decoder of wire frames and of durable records alike. Every accessor
// validates against the bytes remaining before allocating. Its errors
// carry no class; each caller wraps them as its own (*CodecError on the
// wire).
type PayloadReader struct {
	data []byte
	off  int
	err  error
	// alias lets float sections be views of data; viewed records that
	// one was.
	alias, viewed bool
}

// NewPayloadReader returns a reader at the start of data whose float
// groups are always copied out of it.
func NewPayloadReader(data []byte) *PayloadReader { return &PayloadReader{data: data} }

// Fail records the reader's first error; later reads return zero values.
func (r *PayloadReader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *PayloadReader) remaining() int { return len(r.data) - r.off }

// Finish fails on unread payload bytes and returns the first error the
// reader met.
func (r *PayloadReader) Finish() error {
	if r.err == nil && r.remaining() != 0 {
		r.Fail("%d trailing payload bytes", r.remaining())
	}
	return r.err
}

// Varint reads a zig-zag signed varint.
func (r *PayloadReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.Fail("truncated or malformed varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Uvarint reads an unsigned varint.
func (r *PayloadReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Fail("truncated or malformed uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Bytes returns the next n bytes as a view of the payload, nil on error.
func (r *PayloadReader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.Fail("%d bytes requested with %d remaining", n, r.remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *PayloadReader) u32() uint32 {
	b := r.Bytes(4)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads 8 little-endian bytes.
func (r *PayloadReader) U64() uint64 {
	b := r.Bytes(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Flag reads one byte that must be 0 or 1; name labels the failure.
func (r *PayloadReader) Flag(name string) bool {
	b := r.Bytes(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.Fail("%s flag %d", name, b[0])
	}
	return b[0] == 1
}

// Str reads a string as AppendString wrote it.
func (r *PayloadReader) Str() string {
	n := r.Count(1)
	if r.err != nil {
		return ""
	}
	return string(r.Bytes(n))
}

// Count reads a uvarint count of items of at least size bytes each and
// checks it against the bytes remaining.
func (r *PayloadReader) Count(size int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(r.remaining()/size) {
		r.Fail("count %d of %d-byte items with %d bytes remaining", n, size, r.remaining())
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// viewable reports whether the ln-float section at the reader's offset
// is decoded as a view of the payload: the reader may alias it, the
// section is at least viewFloats long, and it starts 4-aligned. The
// length is already checked against the bytes remaining.
func (r *PayloadReader) viewable(ln int) bool {
	return r.alias && nativeLittleEndian && ln >= viewFloats &&
		uintptr(unsafe.Pointer(&r.data[r.off]))%4 == 0
}

// copiedFloats walks one [][]float32 group and returns how many of its
// floats slicesInto will copy into the arena rather than view. It stops
// at the first bad length; slicesInto then fails at the same place,
// having copied no more than was counted.
func (r *PayloadReader) copiedFloats() int { return r.copiedSections(r.Count(1)) }

// copiedSections is copiedFloats for the next k sections of a group
// whose count was already read.
func (r *PayloadReader) copiedSections(k int) int {
	n := 0
	for i := k; i > 0 && r.err == nil; i-- {
		ln := r.Count(4)
		if r.err == nil && !r.viewable(ln) {
			n += ln
		}
		r.Bytes(4 * ln)
	}
	return n
}

// slicesInto decodes one [][]float32 group: a viewable section (see
// viewable) becomes a view of the payload, and every other one is
// copied into the shared arena, which copiedFloats has sized. Lengths
// are checked against the remaining payload first, so hostile lengths
// fail before anything is carved.
func (r *PayloadReader) slicesInto(arena *[]float32) [][]float32 {
	cnt := r.Count(1)
	if cnt == 0 {
		return nil
	}
	return r.sectionsInto(make([][]float32, cnt), arena)
}

// sectionsInto is slicesInto for the next len(out) sections of a group
// whose count was already read: it fills out, or returns nil on error.
func (r *PayloadReader) sectionsInto(out [][]float32, arena *[]float32) [][]float32 {
	for i := range out {
		ln := r.Count(4)
		if r.err != nil {
			return nil
		}
		if r.viewable(ln) {
			out[i] = unsafe.Slice((*float32)(unsafe.Pointer(&r.data[r.off])), ln)
			r.off += 4 * ln
			r.viewed = true
			continue
		}
		start := len(*arena)
		if start+ln > cap(*arena) {
			r.Fail("slice of %d floats overflows the decode arena", ln)
			return nil
		}
		src := r.Bytes(4 * ln)
		*arena = (*arena)[:start+ln]
		dst := (*arena)[start : start+ln : start+ln]
		if nativeLittleEndian {
			copy(floatBytes(dst), src)
		} else {
			getFloats(dst, src)
		}
		out[i] = dst
	}
	return out
}

// FloatGroup decodes one [][]float32 group, as AppendFloatGroup wrote
// it, into one arena of its own: copied, never a view or pooled.
func (r *PayloadReader) FloatGroup() [][]float32 {
	s := *r
	arena := make([]float32, 0, s.copiedFloats())
	return r.slicesInto(&arena)
}

// JobSpec reads a job spec as AppendJobSpec wrote it.
func (r *PayloadReader) JobSpec() (s JobSpec) {
	if !r.Flag("job-spec presence") {
		return s
	}
	s.Name = r.Str()
	s.Model = r.Str()
	s.Seed = r.Varint()
	s.Iterations = int(r.Varint())
	s.TotalBatch = int(r.Varint())
	s.TokenBatch = int(r.Varint())
	s.LR = math.Float32frombits(r.u32())
	s.Momentum = math.Float32frombits(r.u32())
	s.MinWorkers = int(r.Varint())
	s.MaxWorkers = int(r.Varint())
	s.Priority = int(r.Varint())
	return s
}

// head reads the payload fields before the grads group into m.
func (r *PayloadReader) head(m *Message) {
	m.WID = int(r.Varint())
	m.Iter = int(r.Varint())
	m.Token.ID = int(r.Varint())
	m.Token.Seq = int(r.Varint())
	m.Token.Lo = int(r.Varint())
	m.Token.Hi = int(r.Varint())
	m.Token.Owner = int(r.Varint())
	m.Loss = math.Float64frombits(r.U64())
}

// tail reads the payload fields after the params group into m.
func (r *PayloadReader) tail(m *Message) {
	m.Err = r.Str()
	m.Job = r.JobSpec()
	m.JobID = int(r.Varint())
	m.Span.TraceID = r.U64()
	m.Span.SpanID = r.U64()
}

// decodePayloadMeta decodes a frame body whose header already
// validated: an fp16 or int8 grads section expands to dense floats, and
// a top-k one becomes TopKSections viewing the payload. The returned
// gradInfo feeds the compression telemetry. frame, when non-nil, is the
// pooled buffer holding payload, and the decode takes it over: large
// aligned float sections and top-k sections become views of it and the
// message keeps it for Release, or, when nothing was viewed, it goes
// back to the pool before decode returns. A top-k payload must come
// with its frame.
func decodePayloadMeta(kind Kind, h frameHead, payload []byte, frame *[]byte) (*Message, gradInfo, error) {
	var gi gradInfo
	codec := h.codec
	r := &PayloadReader{data: payload, alias: frame != nil}
	m := &Message{Kind: kind, gradCodec: codec}
	r.head(m)
	gradStart := r.off
	var arena *[]float32
	if codec == CompressExact {
		// A scan pass on a copy of the reader sizes the arena to exactly
		// the floats both groups copy: views take none of it.
		s := *r
		if h.rank1 {
			arena = getFloatArena(s.copiedRank1Floats() + s.copiedFloats())
			grads, rank1 := r.rank1SlicesInto(arena)
			m.Grads = grads
			m.SetRank1(rank1)
		} else {
			arena = getFloatArena(s.copiedFloats() + s.copiedFloats())
			m.Grads = r.slicesInto(arena)
		}
	} else if r.err == nil {
		// Compressed floats cost less than 4 wire bytes each, so the
		// payload no longer bounds the arena — a scan pass sizes the
		// gradient expansion (validating every length and top-k index)
		// and the params that follow stay exact.
		total, err := r.scanCompressedSlices(codec)
		if err != nil {
			putRecvBuf(frame)
			return nil, gi, err
		}
		if codec == CompressTopK {
			m.topk = r.topKSections()
			r.viewed = len(m.topk) > 0
			arena = getFloatArena(r.remaining() / 4)
		} else {
			arena = getFloatArena(total + r.remaining()/4)
			m.Grads = r.compressedSlicesInto(arena, codec)
		}
	} else {
		arena = getFloatArena(0)
	}
	gi.codec = codec
	gi.wire = r.off - gradStart
	gi.raw = m.gradFloats() * 4
	m.Params = r.slicesInto(arena)
	if len(*arena) > 0 {
		m.pooled = arena
	} else {
		floatPool.Put(arena)
	}
	r.tail(m)
	err := r.Finish()
	// Every field is read: the frame is kept only if sections view it.
	if r.viewed && err == nil {
		m.frame = frame
	} else {
		putRecvBuf(frame)
	}
	if err != nil {
		m.Release()
		return nil, gi, &CodecError{err}
	}
	return m, gi, nil
}

// Broadcast is one message sent to many conns: the coordinator's
// per-iteration parameter broadcast. Msg's float sections may be the
// sender's live tensors. They must not change until the fan-out
// returns, and may change after it, because a sender that writes later
// works from Snapshot.
//
// The frame is encoded once, by whichever conn sends first, with every
// exact section of viewFloats or more cut out as tcpConn.Send cuts it.
// Each conn then writes that small header by writev with the sections
// spliced back in straight from Msg, and returns once the write is
// done. So every recipient (elastic joiners admitted at the same
// barrier included) receives identical bytes, and no per-iteration copy
// of the parameters is made. A sender that delivers after the fan-out
// returns (jobs.asyncConn) sends Snapshot instead.
type Broadcast struct {
	// Msg is the underlying message; it must not be mutated after the
	// first send.
	Msg *Message

	enc  *broadcastFrame // shared with the snapshot
	once sync.Once
	snap *Broadcast
}

// broadcastFrame is a broadcast's encoding: the frame with its large
// sections left out, and the offsets they go back in at, in section
// order. It is immutable once built. A queued sender may still write it
// after the fan-out returns, so it is left to the GC rather than pooled;
// it is a few hundred bytes plus the sections too short to cut.
type broadcastFrame struct {
	once sync.Once
	head []byte
	cuts []int
	err  error
}

// NewBroadcast prepares m for encode-once fan-out.
func NewBroadcast(m *Message) *Broadcast { return &Broadcast{Msg: m, enc: new(broadcastFrame)} }

// Snapshot returns a Broadcast of an immutable copy of Msg's floats
// that shares b's encoding, so the frame is still encoded once. The copy
// is made on the first call, at most once per Broadcast, and that call
// must come during the fan-out, while Msg's floats are still unchanged.
// A snapshot is its own snapshot.
func (b *Broadcast) Snapshot() *Broadcast {
	b.once.Do(func() {
		if b.snap == nil {
			b.snap = &Broadcast{Msg: b.Msg.payloadCopy(), enc: b.enc}
			b.snap.snap = b.snap
		}
	})
	return b.snap
}

// frame returns the broadcast's encoding, building it on first use
// (counted against st, the stats of whichever conn got there first, at
// the frame's full wire size).
func (b *Broadcast) frame(st *codecStats) (*broadcastFrame, error) {
	e := b.enc
	e.once.Do(func() {
		start := time.Now()
		var cuts []floatCut
		if e.head, _, e.err = appendFrameMeta(nil, b.Msg, &cuts); e.err != nil {
			return
		}
		e.cuts = make([]int, len(cuts))
		for i, c := range cuts {
			e.cuts[i] = c.off
		}
		st.encoded(b.Msg.Kind, len(e.head)+cutBytes(&cuts), start)
	})
	return e, e.err
}

// cutsOf appends to dst the cut list for sending m under this encoding:
// its offsets paired with m's sections of viewFloats or more, which
// appendFrameMeta cut in this order. m is the encoded message or its
// snapshot, whose sections have the same lengths.
func (e *broadcastFrame) cutsOf(m *Message, dst []floatCut) []floatCut {
	if len(e.cuts) == 0 {
		return dst // a big-endian host, or no large section
	}
	i := 0
	for g, ss := range [2][][]float32{m.Grads, m.Params} {
		if g == 0 && m.gradCodec != CompressExact {
			continue // a compressed grads section is never cut
		}
		for _, s := range ss {
			if len(s) >= viewFloats {
				dst = append(dst, floatCut{e.cuts[i], s})
				i++
			}
		}
	}
	return dst
}

// BroadcastConn is implemented by connections that can fan out a shared
// broadcast.
type BroadcastConn interface {
	Conn
	// SendBroadcast sends the broadcast, reusing its encoding; see
	// Broadcast for which of Msg and Snapshot it may send.
	SendBroadcast(*Broadcast) error
}

// SendBroadcast sends b over c, using the encode-once fast path when the
// connection supports it and falling back to a plain Send of b.Msg
// otherwise, which captures the payload before it returns.
func SendBroadcast(c Conn, b *Broadcast) error {
	if bc, ok := c.(BroadcastConn); ok {
		return bc.SendBroadcast(b)
	}
	return c.Send(b.Msg)
}

// MetricsConn is implemented by connections that record codec-level
// telemetry (encode/decode ops, bytes, latency). Instrument wires the
// registry through automatically; wrappers forward it inward.
type MetricsConn interface {
	Conn
	// SetMetrics attaches the registry the connection's codec work is
	// recorded into.
	SetMetrics(*obs.Registry)
}

// SetConnMetrics attaches codec telemetry when the connection supports
// it and reports whether it did.
func SetConnMetrics(c Conn, reg *obs.Registry) bool {
	mc, ok := c.(MetricsConn)
	if ok {
		mc.SetMetrics(reg)
	}
	return ok
}
