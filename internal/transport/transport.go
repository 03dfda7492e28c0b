// Package transport carries the Fela token protocol between the
// coordinator (Token Server) and workers in the real-time engine
// (internal/rt). Every connection speaks the length-prefixed binary
// frame format of codec.go, over one of two byte streams: TCP for
// distributed runs (cmd/felaserver, cmd/felaworker), and an in-process
// pipe (Pair) for single-process training and tests.
//
// Fault model: connections can time out (per-message send/receive
// deadlines via SetTimeouts), lose their peer (process crash, network
// partition) or deliver garbage (truncated or corrupted frames). Every
// failure surfaces as an error whose cause is recoverable through
// Classify, so the engine can tell a slow worker from a dead one from a
// byzantine one. FaultConn (fault.go) injects each of these failures
// deterministically for chaos testing.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"fela/internal/obs"
)

// Kind enumerates protocol messages.
type Kind int

const (
	// KindRegister introduces a worker (WID set).
	KindRegister Kind = iota
	// KindRequest asks the coordinator for a token (WID set).
	KindRequest
	// KindAssign hands a token to a worker (Token set).
	KindAssign
	// KindReport returns a completed token with its gradient
	// contribution (WID, Token, Grads set).
	KindReport
	// KindIterStart opens an iteration: carries the iteration number
	// and the current model parameters.
	KindIterStart
	// KindShutdown ends the session.
	KindShutdown
	// KindJoin asks to be admitted into an in-progress elastic session
	// (worker -> coordinator, no WID yet). The coordinator replies with
	// the same kind once the join is applied at an iteration barrier,
	// carrying the assigned WID and the first iteration the new worker
	// participates in.
	KindJoin
	// KindLeave announces a graceful drain (WID set): the worker stops
	// pulling tokens and any tokens it still holds return to the pool.
	KindLeave
	// KindDrainAck confirms a drain at the iteration barrier
	// (coordinator -> worker); the worker may disconnect.
	KindDrainAck
	// KindSubmitJob submits a training job to a multi-tenant pool
	// (client -> manager, Job set), or assigns a pooled worker to a job
	// (manager -> worker, JobID and Job set) so the worker can rebuild
	// the job's model and dataset before joining its session.
	KindSubmitJob
	// KindJobDone reports a completed job back to its submitter (JobID,
	// Loss and Params set; Err set when the job was rejected or failed).
	KindJobDone
	// KindReassign asks a live worker to migrate to another job
	// (manager's coordinator -> worker): the worker answers with a
	// normal KindLeave, drains out of the donor job at the next
	// iteration barrier, and re-registers with the pool.
	KindReassign
)

// kindNames orders every protocol kind next to its wire name. Kinds and
// Kind.String both derive from this table, so a new kind added here is
// enumerated and named everywhere at once (locked in by the transport
// kind-table test).
var kindNames = [...]string{
	KindRegister:  "register",
	KindRequest:   "request",
	KindAssign:    "assign",
	KindReport:    "report",
	KindIterStart: "iter-start",
	KindShutdown:  "shutdown",
	KindJoin:      "join",
	KindLeave:     "leave",
	KindDrainAck:  "drain-ack",
	KindSubmitJob: "submit-job",
	KindJobDone:   "job-done",
	KindReassign:  "reassign",
}

// Kinds lists every protocol message kind (test enumeration).
func Kinds() []Kind {
	out := make([]Kind, len(kindNames))
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String names the message kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// JobSpec describes one training job submitted to a multi-tenant pool
// (internal/jobs). It carries everything a pooled worker needs to
// rebuild the job's model replica and dataset deterministically: the
// preset name plus the seeds and hyperparameters, never weights. The
// struct is comparable so the zero value means "no job attached".
type JobSpec struct {
	// Name labels the job in logs, /statusz and reports.
	Name string
	// Model names a deterministic model/dataset preset; empty selects
	// the default preset. Validating it builds nothing; the manager
	// builds only the preset's network, and a worker the network plus
	// the first TotalBatch rows of the dataset (internal/jobs
	// BuildSession).
	Model string
	// Seed derives the model-init and dataset seeds (0 = defaults).
	Seed int64
	// Iterations, TotalBatch, TokenBatch, LR and Momentum mirror
	// rt.Config for the job's session.
	Iterations int
	TotalBatch int
	TokenBatch int
	LR         float32
	Momentum   float32
	// MinWorkers floors the job's allocation once started (0 = 1);
	// MaxWorkers caps it (0 = unbounded).
	MinWorkers int
	MaxWorkers int
	// Priority orders jobs under the priority allocation policy; higher
	// is more important.
	Priority int
}

// TokenInfo describes one unit of work: train on sample rows [Lo, Hi).
type TokenInfo struct {
	ID, Seq, Lo, Hi int
	// Owner is the worker whose shard the samples belong to.
	Owner int
}

// Message is the wire unit. Only the fields relevant to Kind are set.
type Message struct {
	Kind   Kind
	WID    int
	Iter   int
	Token  TokenInfo
	Grads  [][]float32
	Params [][]float32
	// Loss carries the token's training loss on reports, and the final
	// mean loss on job-done messages.
	Loss float64
	// Job and JobID attach a job to pool-protocol messages
	// (internal/jobs): a submission carries the spec, a worker
	// assignment carries both, and a worker re-registering with the
	// pool echoes the JobID it just served (0 = fresh worker).
	Job   JobSpec
	JobID int
	// Err carries a failure description on job-done messages (a
	// rejected spec, a session error); empty means success.
	Err string
	// Span propagates the sender's trace context (internal/obs): an
	// assign carries the coordinator's span, the worker's compute span
	// becomes its child, and the report echoes the context back — one
	// distributed trace per token round-trip. Zero when tracing is off.
	Span obs.SpanContext

	// pooled, when non-nil, is the codec arena the copied Grads/Params
	// slices were carved from, and frame the received frame buffer the
	// others, and topk, are views of; Release returns both. Unexported
	// so hand-built messages are never mistaken for pooled ones.
	pooled *[]float32
	frame  *[]byte
	// topk holds a report decoded under CompressTopK in place of Grads;
	// see TopK. rank1 holds a report's rank-1 sections beside Grads; see
	// Rank1. It is a pointer, to keep every other message's allocation
	// in the smaller size class.
	topk  []TopKSection
	rank1 *[]Rank1Section

	// gradCodec selects the gradient compression applied to the Grads
	// section on the binary wire (compress.go); zero is the exact
	// encoding. Unexported so hand-built messages default to exact. Set
	// and read through SetGradCodec/GradCodec.
	gradCodec Compression

	// more lets the conn hold the frame; see SetMore. Unexported for the
	// same reasons as gradCodec.
	more bool
}

// SetMore marks the message as one the conn may hold, like MSG_MORE: the
// conn keeps it until the next Send or until this conn's Recv would
// block, and then writes every held frame in one write. The bytes on
// the wire are those of separate Sends. A frame that would take the
// held bytes to 64 KiB or beyond is written at once, with those held
// before it. The coordinator marks all but the last assign of a batch,
// so the batch leaves in one write; a worker marks its report, and its
// request after a short token, so they leave together when it next
// waits for an assign.
func (m *Message) SetMore(more bool) { m.more = more }

// WireSize estimates the message's encoded size in bytes: the float
// payloads dominate (4 bytes each; a rank-1 section's are its factors,
// a top-k one's its dense length), everything else is a small fixed
// overhead. Instrument counts bytes per message kind with this
// estimate; the codec's own counters record the real frame sizes.
func (m *Message) WireSize() int {
	if m == nil {
		return 0
	}
	n := 64 // frame header, kind, ids, token info, span context
	n += len(m.Err)
	if m.Job != (JobSpec{}) {
		n += 48 + len(m.Job.Name) + len(m.Job.Model)
	}
	for i := range m.NumGrads() {
		if m.isRank1(i) {
			f := m.Rank1()[i]
			n += 4 * (len(f.X) + len(f.D))
		} else {
			n += 4 * m.GradLen(i)
		}
	}
	for _, p := range m.Params {
		n += 4 * len(p)
	}
	return n
}

// TopK returns the gradient sections of a report decoded under
// CompressTopK, which carries these instead of Grads: the kept entries
// as they arrived, never expanded to dense floats. It is nil for every
// other message.
func (m *Message) TopK() []TopKSection { return m.topk }

// NumGrads is how many gradient sections the message carries, dense
// (Grads) or top-k (TopK).
func (m *Message) NumGrads() int {
	if m.topk != nil {
		return len(m.topk)
	}
	return len(m.Grads)
}

// GradLen is the dense length of gradient section i.
func (m *Message) GradLen(i int) int {
	switch {
	case m.topk != nil:
		return m.topk[i].n
	case m.isRank1(i):
		return (*m.rank1)[i].Len()
	}
	return len(m.Grads[i])
}

// gradFloats is the dense float count of all gradient sections.
func (m *Message) gradFloats() int {
	n := 0
	for i := range m.NumGrads() {
		n += m.GradLen(i)
	}
	return n
}

// Conn is a bidirectional, ordered message pipe.
type Conn interface {
	// Send writes one message; it is safe for one concurrent sender.
	// Send captures the message's float payload (Grads, rank-1
	// factors, Params) before it returns — written to the socket or
	// copied into the pipe — so the caller may overwrite those slices
	// as soon as it returns: workers report straight from their
	// network's gradient buffers and factor copies, which the next
	// token overwrites. The conn writes a section of 64 KiB or more
	// from the caller's slice itself, by writev, and returns only once
	// that write is done. A wrapper that delivers later (jobs.asyncConn)
	// must only ever be handed payloads nobody mutates again, such as a
	// Broadcast's Snapshot. A message
	// marked SetMore may reach the wire only with the next Send, or when
	// Recv on the same conn would block.
	Send(*Message) error
	// Recv blocks for the next message; io errors or closure return an
	// error. Before it blocks, it writes any frames Send held.
	Recv() (*Message, error)
	// Close tears the connection down; pending Recv calls fail.
	Close() error
}

// TimeoutConn is implemented by transports that support per-message
// send/receive deadlines.
type TimeoutConn interface {
	Conn
	// SetTimeouts bounds each subsequent Send and Recv. Zero disables
	// the corresponding deadline.
	SetTimeouts(send, recv time.Duration)
}

// SetTimeouts applies per-message deadlines when the connection supports
// them and reports whether it did.
func SetTimeouts(c Conn, send, recv time.Duration) bool {
	tc, ok := c.(TimeoutConn)
	if ok {
		tc.SetTimeouts(send, recv)
	}
	return ok
}

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// CodecError wraps a wire-format failure: a frame that could not be
// decoded (truncated, corrupted, or type-mismatched).
type CodecError struct{ Err error }

func (e *CodecError) Error() string { return "transport: codec: " + e.Err.Error() }

// Unwrap exposes the underlying decode error.
func (e *CodecError) Unwrap() error { return e.Err }

// Class buckets connection errors by their operational meaning.
type Class int

const (
	// ClassUnknown is an unclassified error.
	ClassUnknown Class = iota
	// ClassTimeout is a per-message deadline expiry: the peer may be
	// slow, hung, or partitioned, but the connection is intact.
	ClassTimeout
	// ClassPeerGone means the remote end disappeared (EOF, reset,
	// refused): the peer process is dead or unreachable.
	ClassPeerGone
	// ClassCodec means the stream delivered bytes that do not decode:
	// the connection is unusable even though the peer may live.
	ClassCodec
	// ClassClosed means this end was closed locally: ErrClosed, or the
	// net.ErrClosed a TCP or Pair end fails with after its own Close
	// (its peer reads io.EOF, which is ClassPeerGone).
	ClassClosed
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassTimeout:
		return "timeout"
	case ClassPeerGone:
		return "peer-gone"
	case ClassCodec:
		return "codec"
	case ClassClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// Classify buckets a connection error. nil maps to ClassUnknown.
func Classify(err error) Class {
	if err == nil {
		return ClassUnknown
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, net.ErrClosed) {
		return ClassClosed
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ClassTimeout
	}
	var ce *CodecError
	if errors.As(err, &ce) {
		return ClassCodec
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ClassPeerGone
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return ClassPeerGone
	}
	return ClassUnknown
}

// payloadCopy is m with its floats copied: Grads, rank-1 factors and
// Params are carved from one fresh allocation, so the copy stays as it
// is whatever happens to m's slices. It never carries the original's
// pooled arena, so releasing both is safe. A message without floats is
// returned as it is.
func (m *Message) payloadCopy() *Message {
	total := 0
	for _, s := range m.Grads {
		total += len(s)
	}
	for _, f := range m.Rank1() {
		total += len(f.X) + len(f.D)
	}
	for _, s := range m.Params {
		total += len(s)
	}
	if total == 0 {
		return m
	}
	cp := *m
	cp.pooled, cp.frame = nil, nil
	backing := make([]float32, total)
	carve := func(ss [][]float32) [][]float32 {
		if ss == nil {
			return nil
		}
		out := make([][]float32, len(ss))
		for i, s := range ss {
			out[i] = backing[:len(s):len(s)]
			copy(out[i], s)
			backing = backing[len(s):]
		}
		return out
	}
	cp.Grads = carve(m.Grads)
	if m.rank1 != nil {
		rank1 := make([]Rank1Section, len(*m.rank1))
		for i, f := range *m.rank1 {
			if len(f.X) > 0 {
				fs := carve([][]float32{f.X, f.D})
				rank1[i] = Rank1Section{X: fs[0], D: fs[1]}
			}
		}
		cp.rank1 = &rank1
	}
	cp.Params = carve(m.Params)
	return &cp
}

// tcpConn wraps a net.Conn, a TCP socket or one end of a Pair, with the
// binary frame format (codec.go).
//
// The field order is measured, not arbitrary. It sets how many bytes of
// machine code this package's methods take, and with that the 64-byte
// phase of the tensor and rt code the linker places after it (go tool
// nm shows it). On a 2-vCPU Xeon, train-comm's median ran 2–18 %
// slower in three rounds of paired runs with that code shifted by 32
// bytes; this order keeps its phase.
type tcpConn struct {
	mu sync.Mutex // serializes Send
	// held is the pooled buffer of frames marked SetMore and not yet
	// written: the next Send or SendBroadcast writes them first, in the
	// same write, and a Recv that would block writes them alone. nil
	// when nothing is held. Guarded by mu; holding mirrors it.
	held *[]byte
	// cuts are the float sections Send left out of its encoded bytes,
	// and iov the writev list that splices them back in; wv is what
	// WriteTo consumes. Reused across Sends and guarded by mu.
	cuts    []floatCut
	iov, wv net.Buffers

	conn net.Conn
	// br buffers header reads; writes go straight to the socket from a
	// pooled frame buffer.
	br *bufio.Reader

	tmu         sync.Mutex
	sendTimeout time.Duration
	recvTimeout time.Duration

	stats atomic.Pointer[codecStats]

	// holding mirrors held != nil so that Recv can look without taking
	// mu.
	holding atomic.Bool

	// dest, when set, is where an exact iter-start's parameter sections
	// land (recvParams). Only the goroutine that calls Recv sets it.
	dest [][]float32
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{conn: c, br: bufio.NewReaderSize(c, 1<<16)}
}

// SetMetrics attaches a registry the conn's codec work is recorded into
// (per-kind encode/decode ops, wire bytes, latency).
func (c *tcpConn) SetMetrics(reg *obs.Registry) {
	c.stats.Store(newCodecStats(reg))
}

// SetTimeouts bounds each subsequent Send and Recv via socket deadlines.
func (c *tcpConn) SetTimeouts(send, recv time.Duration) {
	c.tmu.Lock()
	c.sendTimeout, c.recvTimeout = send, recv
	c.tmu.Unlock()
}

func (c *tcpConn) timeouts() (send, recv time.Duration) {
	c.tmu.Lock()
	defer c.tmu.Unlock()
	return c.sendTimeout, c.recvTimeout
}

// maxHeldBytes bounds what a conn holds for SetMore: a marked
// frame that would take the held bytes to this size or beyond is written
// at once, so only control-sized frames ever wait.
const maxHeldBytes = 64 << 10

// hold makes bp the held frames. Callers hold mu.
func (c *tcpConn) hold(bp *[]byte) {
	c.held = bp
	c.holding.Store(true)
}

// takeHeld removes and returns the held frames, nil if there are none.
// Callers hold mu.
func (c *tcpConn) takeHeld() *[]byte {
	bp := c.held
	if bp != nil {
		c.held = nil
		c.holding.Store(false)
	}
	return bp
}

// flushHeld writes the held frames, if any, on their own.
func (c *tcpConn) flushHeld() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	bp := c.takeHeld()
	if bp == nil {
		return nil
	}
	err := c.write(*bp)
	*bp = (*bp)[:0]
	framePool.Put(bp)
	return err
}

func (c *tcpConn) Send(m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats.Load()
	start := time.Now()
	// Encode after the held frames, if any, so one write carries them all.
	bp, off := c.takeHeld(), 0
	if bp != nil {
		off = len(*bp)
	} else {
		bp = framePool.Get().(*[]byte)
	}
	buf, gi, err := appendFrameMeta((*bp)[:off], m, &c.cuts)
	if err != nil {
		// *bp still holds exactly the held frames, if there were any.
		if off > 0 {
			c.hold(bp)
		} else {
			framePool.Put(bp)
		}
		return err
	}
	size := len(buf) - off + cutBytes(&c.cuts)
	st.encoded(m.Kind, size, start)
	st.compressed(0, gi)
	*bp = buf
	if m.more && off+size < maxHeldBytes {
		c.hold(bp)
		return nil
	}
	err = c.write(buf)
	*bp = buf[:0]
	framePool.Put(bp)
	return err
}

// write arms the send deadline and puts buf on the wire after whatever
// c.iov already holds, with the cut sections spliced back in at their
// offsets: one write, or one writev when there is more than buf. It
// empties the cut list and iov either way.
func (c *tcpConn) write(buf []byte) error {
	err := c.setWriteDeadline()
	switch {
	case err != nil:
		clear(c.iov)
		c.iov = c.iov[:0]
	case len(c.cuts) == 0 && len(c.iov) == 0:
		_, err = c.conn.Write(buf)
	default:
		prev := 0
		for _, cut := range c.cuts {
			c.iov = append(c.iov, buf[prev:cut.off], floatBytes(cut.fs))
			prev = cut.off
		}
		c.iov = append(c.iov, buf[prev:])
		err = c.writev()
	}
	clear(c.cuts) // drop the references to the caller's slices
	c.cuts = c.cuts[:0]
	return err
}

// writev writes c.iov, in one writev on a TCP socket and one write per
// buffer on a pipe, and empties it.
func (c *tcpConn) writev() error {
	c.wv = c.iov // WriteTo consumes its receiver; iov keeps the array
	_, err := c.wv.WriteTo(c.conn)
	clear(c.iov)
	c.iov = c.iov[:0]
	return err
}

// setWriteDeadline arms the per-message send deadline, if any, for the
// write about to happen.
func (c *tcpConn) setWriteDeadline() error {
	if send, _ := c.timeouts(); send > 0 {
		return c.conn.SetWriteDeadline(time.Now().Add(send))
	}
	return nil
}

// SendBroadcast writes the broadcast's shared encoding, built by
// whichever conn sends first, with its large sections spliced in by
// writev straight from b.Msg, and returns once they are written.
func (c *tcpConn) SendBroadcast(b *Broadcast) error {
	e, err := b.frame(c.stats.Load())
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Held frames go first, in the same write.
	bp := c.takeHeld()
	if bp != nil {
		c.iov = append(c.iov, *bp)
	}
	c.cuts = e.cutsOf(b.Msg, c.cuts)
	err = c.write(e.head)
	if bp != nil {
		*bp = (*bp)[:0]
		framePool.Put(bp)
	}
	return err
}

func (c *tcpConn) Recv() (*Message, error) {
	if _, recv := c.timeouts(); recv > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(recv)); err != nil {
			return nil, err
		}
	}
	// Held frames leave when this Recv would wait: not while a whole
	// frame is already buffered, so a peer working through a batch holds
	// its replies until the batch is done.
	if c.holding.Load() && !c.frameBuffered() {
		if err := c.flushHeld(); err != nil {
			return nil, err
		}
	}
	return c.recvBinary()
}

// frameBuffered reports whether a whole binary frame is already in the
// read buffer, so that decoding it cannot block.
func (c *tcpConn) frameBuffered() bool {
	n := c.br.Buffered()
	hdr, _ := c.br.Peek(min(n, frameHeaderV2))
	h, err := parseHeader(hdr)
	return err == nil && n >= h.size+h.n
}

// recvBinary reads and decodes one binary frame. The header is
// validated — magic, version, length bound — before the payload is
// read, so a garbled stream fails as ClassCodec without a huge
// allocation, and a stream torn mid-frame fails as ClassPeerGone via
// io.ErrUnexpectedEOF.
func (c *tcpConn) recvBinary() (*Message, error) {
	st := c.stats.Load()
	start := time.Now()
	var hdr [frameHeaderV2]byte
	if _, err := io.ReadFull(c.br, hdr[:frameHeader]); err != nil {
		return nil, err
	}
	h, err := parseHeader(hdr[:frameHeader])
	if err == errShortHeaderV2 { // the v2 codec id and reserved bytes follow
		if _, err := io.ReadFull(c.br, hdr[frameHeader:]); err != nil {
			return nil, err
		}
		h, err = parseHeader(hdr[:])
	}
	if err != nil {
		return nil, err
	}
	if c.dest != nil && Kind(hdr[3]) == KindIterStart && h.codec == CompressExact && !h.rank1 {
		if m, err := c.recvParams(h); m != nil || err != nil {
			if err == nil {
				st.decoded(m.Kind, h.size+h.n, start)
			}
			return m, err
		}
	}
	bp, payload, err := c.readPayload(h)
	if err != nil {
		return nil, err
	}
	m, gi, err := decodePayloadMeta(Kind(hdr[3]), h, payload, bp)
	if err != nil {
		return nil, err
	}
	st.decoded(m.Kind, h.size+h.n, start)
	st.compressed(1, gi)
	return m, nil
}

// firstChunk is how much of a payload must have arrived before the
// receiver allocates a frame buffer larger than that: a header alone
// cannot make it reserve what the header claims.
const firstChunk = 1 << 20

// readPayload reads the payload of the frame h heads by readBytes. For
// an exact frame large enough to carry a section of viewFloats, the
// payload starts 0–3 bytes into the buffer, so that its first float
// section is 4-aligned and can be decoded as a view.
func (c *tcpConn) readPayload(h frameHead) (*[]byte, []byte, error) {
	first := -1
	if h.codec == CompressExact && h.n >= 4*viewFloats {
		first = c.firstSection(h.n, h.rank1)
	}
	return c.readBytes(h.n, first)
}

// readBytes reads the next n bytes into a pooled frame buffer, which the
// caller then owns. A pooled buffer that is big enough is used as it
// is. When first ≥ 0 the bytes start 0–3 bytes into the buffer, so that
// the byte at offset first of them is 4-aligned.
func (c *tcpConn) readBytes(n, first int) (*[]byte, []byte, error) {
	need := n
	if first >= 0 {
		need += 3
	}
	bp := getRecvBuf(need)
	var head []byte // payload bytes read before the buffer was allocated
	if cap(*bp) < need {
		if n > firstChunk {
			head = *bp
			if cap(head) < firstChunk {
				head = make([]byte, firstChunk)
			}
			head = head[:firstChunk]
			if _, err := io.ReadFull(c.br, head); err != nil {
				putRecvBuf(bp)
				return nil, nil, err
			}
		}
		// The buffer too small is dropped, so the pool keeps the large.
		*bp = make([]byte, 0, recvCap(need))
	}
	buf := (*bp)[:need]
	shift := 0
	if first >= 0 {
		shift = int(-(uintptr(unsafe.Pointer(&buf[0])) + uintptr(first)) & 3)
	}
	payload := buf[shift : shift+n]
	k := copy(payload, head)
	if _, err := io.ReadFull(c.br, payload[k:]); err != nil {
		putRecvBuf(bp)
		return nil, nil, err
	}
	*bp = buf
	return bp, payload, nil
}

// prefixMax bounds the payload bytes before the first float section:
// seven varints, the loss, and four uvarints at most (the Grads count,
// the Params count when Grads is empty, the first slice's length, and
// in a rank-1 frame the first section's dense length and slice count
// before it).
const prefixMax = 11*binary.MaxVarintLen64 + 8

// firstSection returns the payload offset of an exact frame's first
// float section, or -1 if it has none; rank1 says the frame's Grads
// sections each lead with a dense length and a slice count. It parses
// the payload's prefix in bufio, waiting only for bytes of this frame;
// a prefix that does not parse gives -1, and decode reports the error.
func (c *tcpConn) firstSection(n int, rank1 bool) int {
	p, _ := c.br.Peek(min(n, prefixMax))
	r := PayloadReader{data: p}
	var skip Message
	r.head(&skip)
	for g := range 2 { // Grads, then Params
		if r.Uvarint() > 0 {
			if g == 0 && rank1 {
				r.Uvarint()
				r.Uvarint()
			}
			if r.Uvarint(); r.err != nil {
				return -1
			}
			return r.off
		}
	}
	return -1
}

// Close tears the socket down and discards any held frame. The socket
// closes first, so a Send blocked in a write (holding mu) returns.
func (c *tcpConn) Close() error {
	err := c.conn.Close()
	c.mu.Lock()
	if bp := c.takeHeld(); bp != nil {
		*bp = (*bp)[:0]
		framePool.Put(bp)
	}
	c.mu.Unlock()
	return err
}

// Listener accepts TCP protocol connections.
type Listener struct{ l net.Listener }

// Listen binds a TCP listener, e.g. on "127.0.0.1:0".
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// ListenCodec is Listen for a caller that names the codec, which must be
// CodecBinary. It exists for the bench module, which calls it.
func ListenCodec(addr, codec string) (*Listener, error) {
	if codec != CodecBinary {
		return nil, fmt.Errorf("transport: unknown codec %q", codec)
	}
	return Listen(addr)
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for one connection.
func (l *Listener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// Dial connects to a coordinator at addr.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}

// DialCodec is Dial for a caller that names the codec, which must be
// CodecBinary. It exists for the bench module, which calls it.
func DialCodec(addr, codec string) (Conn, error) {
	if codec != CodecBinary {
		return nil, fmt.Errorf("transport: unknown codec %q", codec)
	}
	return Dial(addr)
}

// DialRetry dials addr, retrying with exponential backoff (doubling from
// backoff, capped at 2s) until a connection succeeds or attempts run
// out. It is how workers ride out a coordinator that has not bound its
// port yet.
func DialRetry(addr string, attempts int, backoff time.Duration) (Conn, error) {
	if attempts <= 0 {
		attempts = 1
	}
	const maxBackoff = 2 * time.Second
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		var c Conn
		if c, err = Dial(addr); err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("transport: giving up after %d attempts: %w", attempts, err)
}
