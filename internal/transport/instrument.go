package transport

import (
	"time"

	"fela/internal/obs"
)

// Telemetry metric names exported by instrumented connections. One
// counter family per direction and message kind, latency histograms per
// operation, and a deadline-hit counter feeding the straggler analysis.
const (
	MetricMessages  = "fela_transport_messages_total"
	MetricBytes     = "fela_transport_bytes_total"
	MetricSendSecs  = "fela_transport_send_seconds"
	MetricRecvWait  = "fela_transport_recv_wait_seconds"
	MetricDeadlines = "fela_transport_deadline_total"
	MetricErrors    = "fela_transport_errors_total"
)

// instrumentedConn wraps a Conn and records per-kind traffic counters,
// operation latency and deadline expiries into an obs.Registry.
type instrumentedConn struct {
	inner Conn
	reg   *obs.Registry
}

// Instrument wraps the connection with telemetry recording into reg. A
// nil registry returns the connection unchanged (true zero cost), so
// call sites never branch on whether telemetry is enabled.
func Instrument(c Conn, reg *obs.Registry) Conn {
	if reg == nil || c == nil {
		return c
	}
	reg.Help(MetricMessages, "Messages sent/received by direction and protocol kind.")
	reg.Help(MetricBytes, "Estimated wire bytes by direction and protocol kind.")
	reg.Help(MetricSendSecs, "Send call latency in seconds.")
	reg.Help(MetricRecvWait, "Recv blocking time in seconds (includes waiting for the peer).")
	reg.Help(MetricDeadlines, "Per-message deadline expiries by operation.")
	reg.Help(MetricErrors, "Connection errors by operation and classification (excluding deadline expiries).")
	// Conns with a wire codec also get codec-level telemetry (encode/
	// decode ops, real wire bytes, latency) in the same registry.
	SetConnMetrics(c, reg)
	return &instrumentedConn{inner: c, reg: reg}
}

func (ic *instrumentedConn) record(op string, m *Message, err error) {
	if err == nil {
		kind := m.Kind.String()
		ic.reg.Counter(MetricMessages, "dir", op, "kind", kind).Inc()
		ic.reg.Counter(MetricBytes, "dir", op, "kind", kind).Add(int64(m.WireSize()))
		return
	}
	switch Classify(err) {
	case ClassTimeout:
		ic.reg.Counter(MetricDeadlines, "op", op).Inc()
	default:
		ic.reg.Counter(MetricErrors, "op", op, "class", Classify(err).String()).Inc()
	}
}

func (ic *instrumentedConn) Send(m *Message) error {
	start := time.Now()
	err := ic.inner.Send(m)
	ic.reg.Histogram(MetricSendSecs, nil).Observe(time.Since(start).Seconds())
	ic.record("send", m, err)
	return err
}

func (ic *instrumentedConn) Recv() (*Message, error) {
	start := time.Now()
	m, err := ic.inner.Recv()
	ic.reg.Histogram(MetricRecvWait, nil).Observe(time.Since(start).Seconds())
	ic.record("recv", m, err)
	return m, err
}

// SendBroadcast forwards the encode-once fast path to the wrapped
// connection (falling back to a plain Send), recording the same traffic
// telemetry as Send.
func (ic *instrumentedConn) SendBroadcast(b *Broadcast) error {
	start := time.Now()
	err := SendBroadcast(ic.inner, b)
	ic.reg.Histogram(MetricSendSecs, nil).Observe(time.Since(start).Seconds())
	ic.record("send", b.Msg, err)
	return err
}

func (ic *instrumentedConn) Close() error { return ic.inner.Close() }

// SetTimeouts forwards per-message deadlines to the wrapped conn, so
// that they bind when that conn has them.
func (ic *instrumentedConn) SetTimeouts(send, recv time.Duration) { SetTimeouts(ic.inner, send, recv) }
