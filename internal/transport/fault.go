package transport

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// FaultConn wraps a Conn and injects scripted faults, seeded
// deterministically so chaos runs replay exactly. The zero script is a
// transparent pass-through; each fault arms independently:
//
//   - DelayBy: every message pays a pseudorandom delay in [0, max).
//   - DropSendsAfter(n): the n-th and later sends are swallowed
//     silently — the peer sees a worker that went mute (a hang or a
//     network blackhole).
//   - CloseAfterSends(n): the n-th send closes the connection instead
//     of transmitting — the peer sees the stream die mid-message.
//   - GarbleRecvsAfter(n): the n-th and later receives return a
//     *CodecError — the frame arrived corrupted.
//   - HangRecvsAfter(n): the n-th and later receives block until the
//     connection is closed — a peer that stops answering without
//     disconnecting.
//
// Counters are per-direction and zero-based: CloseAfterSends(0) kills
// the very first send.
type FaultConn struct {
	inner Conn

	mu               sync.Mutex
	rng              *rand.Rand
	sends, recvs     int
	maxDelay         time.Duration
	dropSendsAfter   int
	closeAfterSends  int
	garbleRecvsAfter int
	hangRecvsAfter   int

	hungOnce sync.Once
	hung     chan struct{}
}

// NewFaultConn wraps inner with every fault disarmed.
func NewFaultConn(inner Conn, seed int64) *FaultConn {
	return &FaultConn{
		inner:            inner,
		rng:              rand.New(rand.NewSource(seed)),
		dropSendsAfter:   -1,
		closeAfterSends:  -1,
		garbleRecvsAfter: -1,
		hangRecvsAfter:   -1,
		hung:             make(chan struct{}),
	}
}

// DelayBy arms a per-message pseudorandom delay in [0, max).
func (f *FaultConn) DelayBy(max time.Duration) *FaultConn {
	f.mu.Lock()
	f.maxDelay = max
	f.mu.Unlock()
	return f
}

// DropSendsAfter swallows the n-th (zero-based) and later sends.
func (f *FaultConn) DropSendsAfter(n int) *FaultConn {
	f.mu.Lock()
	f.dropSendsAfter = n
	f.mu.Unlock()
	return f
}

// CloseAfterSends closes the connection on the n-th (zero-based) send.
func (f *FaultConn) CloseAfterSends(n int) *FaultConn {
	f.mu.Lock()
	f.closeAfterSends = n
	f.mu.Unlock()
	return f
}

// GarbleRecvsAfter makes the n-th (zero-based) and later receives
// return a *CodecError.
func (f *FaultConn) GarbleRecvsAfter(n int) *FaultConn {
	f.mu.Lock()
	f.garbleRecvsAfter = n
	f.mu.Unlock()
	return f
}

// HangRecvsAfter makes the n-th (zero-based) and later receives block
// until the connection is closed.
func (f *FaultConn) HangRecvsAfter(n int) *FaultConn {
	f.mu.Lock()
	f.hangRecvsAfter = n
	f.mu.Unlock()
	return f
}

var errGarbled = errors.New("injected garbled frame")

// Send applies the scripted send faults, then forwards to the inner
// connection.
func (f *FaultConn) Send(m *Message) error {
	f.mu.Lock()
	n := f.sends
	f.sends++
	delay := f.delayLocked()
	drop := f.dropSendsAfter >= 0 && n >= f.dropSendsAfter
	closeNow := f.closeAfterSends >= 0 && n >= f.closeAfterSends
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if closeNow {
		f.Close()
		return ErrClosed
	}
	if drop {
		return nil
	}
	return f.inner.Send(m)
}

// Recv applies the scripted receive faults, then forwards to the inner
// connection.
func (f *FaultConn) Recv() (*Message, error) {
	f.mu.Lock()
	n := f.recvs
	f.recvs++
	delay := f.delayLocked()
	garble := f.garbleRecvsAfter >= 0 && n >= f.garbleRecvsAfter
	hang := f.hangRecvsAfter >= 0 && n >= f.hangRecvsAfter
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if hang {
		<-f.hung
		return nil, ErrClosed
	}
	if garble {
		return nil, &CodecError{errGarbled}
	}
	return f.inner.Recv()
}

func (f *FaultConn) delayLocked() time.Duration {
	if f.maxDelay <= 0 {
		return 0
	}
	return time.Duration(f.rng.Int63n(int64(f.maxDelay)))
}

// Close closes the inner connection and releases hung receivers.
func (f *FaultConn) Close() error {
	f.hungOnce.Do(func() { close(f.hung) })
	return f.inner.Close()
}

// SetTimeouts forwards per-message deadlines to the inner connection,
// so that they bind when it has them.
func (f *FaultConn) SetTimeouts(send, recv time.Duration) { SetTimeouts(f.inner, send, recv) }

// Sends reports how many sends were attempted (including dropped ones).
func (f *FaultConn) Sends() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sends
}
