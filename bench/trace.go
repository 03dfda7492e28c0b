package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fela/internal/obs"
	"fela/internal/transport"
)

// Tracing lives in the benchmark's own files: a Conn wrapper stamps
// every Send and Recv on both ends of every connection, and the spans
// of a token's life are rebuilt from those stamps after the run. The
// hot path appends one fixed-size record per call.

// connEvent is one Send or Recv as the wrapper saw it.
type connEvent struct {
	start, end int64 // ns since the recorder's epoch
	kind       transport.Kind
	send       bool
	iter       int32 // from the message; 0 when the kind carries none
	tok        int32 // token id, -1 when the kind carries none
}

// key orders events of one goroutine-sequential peer: a send counts
// from when it began, a receive from when it returned.
func (e connEvent) key() int64 {
	if e.send {
		return e.start
	}
	return e.end
}

// tracedConn wraps a transport.Conn and records every call. It forwards
// the optional interfaces of the wrapped connection — the encode-once
// broadcast, per-message deadlines and codec telemetry — so a traced
// session runs the same code paths as an untraced one.
type tracedConn struct {
	inner transport.Conn
	epoch time.Time

	mu     sync.Mutex // the coordinator's pump receives while its loop sends
	events []connEvent
}

var (
	_ transport.BroadcastConn = (*tracedConn)(nil)
	_ transport.TimeoutConn   = (*tracedConn)(nil)
	_ transport.MetricsConn   = (*tracedConn)(nil)
)

func newTracedConn(inner transport.Conn, epoch time.Time) *tracedConn {
	return &tracedConn{inner: inner, epoch: epoch}
}

func (c *tracedConn) record(send bool, m *transport.Message, start time.Time) {
	e := connEvent{
		start: int64(start.Sub(c.epoch)), end: int64(time.Since(c.epoch)),
		kind: m.Kind, send: send, iter: int32(m.Iter), tok: -1,
	}
	if m.Kind == transport.KindAssign || m.Kind == transport.KindReport {
		e.tok = int32(m.Token.ID)
	}
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *tracedConn) Send(m *transport.Message) error {
	start := time.Now()
	err := c.inner.Send(m)
	if err == nil {
		c.record(true, m, start)
	}
	return err
}

func (c *tracedConn) SendBroadcast(b *transport.Broadcast) error {
	start := time.Now()
	err := transport.SendBroadcast(c.inner, b)
	if err == nil {
		c.record(true, b.Msg, start)
	}
	return err
}

func (c *tracedConn) Recv() (*transport.Message, error) {
	start := time.Now()
	m, err := c.inner.Recv()
	if err == nil {
		c.record(false, m, start)
	}
	return m, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

func (c *tracedConn) SetTimeouts(send, recv time.Duration) {
	transport.SetTimeouts(c.inner, send, recv)
}

func (c *tracedConn) SetMetrics(reg *obs.Registry) { transport.SetConnMetrics(c.inner, reg) }

// sorted returns the connection's events in the order its peer-facing
// goroutines produced them.
func (c *tracedConn) sorted() []connEvent {
	c.mu.Lock()
	ev := append([]connEvent(nil), c.events...)
	c.mu.Unlock()
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].key() < ev[j].key() })
	return ev
}

// span is one node of the written trace. A layer's self time is its
// span minus the part its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Worker int    `json:"worker"` // -1 = coordinator or client-side
	Iter   int    `json:"iter"`
	Token  int    `json:"token"` // token or job id, -1 = none
}

// maxSpans caps the written trace: train-sched makes millions of spans
// and the first few hundred iterations already show the token's life.
// The slice totals below are computed over the whole run.
const maxSpans = 20000

type spanLog struct {
	spans []span
	total int
}

func (l *spanLog) add(parent int, name string, start, end int64, wid, iter, tok int) int {
	l.total++
	if len(l.spans) >= maxSpans {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id, parent, name, start, end, wid, iter, tok})
	return id
}

// write puts the trace under bench/out/.
func (l *spanLog) write(workload string, seed int64) error {
	dir := filepath.Join("bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Workload  string `json:"workload"`
		Seed      int64  `json:"seed"`
		Total     int    `json:"total_spans"`
		Truncated bool   `json:"truncated"`
		Spans     []span `json:"spans"`
	}{workload, seed, l.total, l.total > len(l.spans), l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), body, 0o644)
}

// Budget slices: every nanosecond of a worker's session falls in
// exactly one, so per iteration they sum to the workers' time in it.
const (
	sliceCompute     = iota // batch, forward+backward, flatten (injected sleep taken out)
	sliceReportSend         // encode + socket write
	sliceReqToAssign        // request send, pick, assign encode, wire, decode
	sliceBarrierWait        // last request of the iteration to the next iter-start's return
	sliceInstall            // iter-start return to first request: parameter install
	sliceSleep              // TokenDelay and Delay sleeps, at their nominal length
	sliceOther              // protocol-loop work between the slices above
	nSlices
)

var sliceNames = [nSlices]string{
	"worker.compute", "transport.report_send", "rt.request_to_assign",
	"worker.barrier_wait", "worker.install", "injected.sleep", "worker.other",
}

// iterBudget is the workers' time in one iteration, by slice.
type iterBudget struct {
	slices [nSlices]int64
	wall   int64 // summed over workers
}

// trainTrace is what a traced training session yields.
type trainTrace struct {
	reqToAssignNS []int64
	computeNS     []int64
	reportSendNS  []int64
	iterSendNS    []int64 // per iteration: both iter-start sends
	barrierNS     []int64 // last report received to next iter-start send
	perIter       []iterBudget
	total         iterBudget
	busyNS        int64 // compute and injected sleeps, summed over workers
	workerEvents  int
	log           spanLog
}

// analyze rebuilds spans and slice totals from the wrapper's events.
// workerConns[w] is worker w's end; coordConns are the coordinator's.
func analyze(w *workload, iters int, workerConns, coordConns []*tracedConn) *trainTrace {
	tr := &trainTrace{perIter: make([]iterBudget, iters)}
	for wid, c := range workerConns {
		tr.walkWorker(w, wid, c.sorted())
	}
	tr.walkCoordinator(coordConns)
	for i := range tr.perIter {
		b := &tr.perIter[i]
		sum := int64(0)
		for _, v := range b.slices {
			sum += v
		}
		b.slices[sliceOther] = b.wall - sum
		for s, v := range b.slices {
			tr.total.slices[s] += v
		}
		tr.total.wall += b.wall
	}
	return tr
}

// medianIteration averages the budgets of the iterations whose length
// ranks in the middle fifth, so that the budget describes the iteration
// iter_ms_p50 describes and a few slow iterations do not skew it.
func (tr *trainTrace) medianIteration() iterBudget {
	byWall := append([]iterBudget(nil), tr.perIter...)
	sort.Slice(byWall, func(i, j int) bool { return byWall[i].wall < byWall[j].wall })
	n := len(byWall)
	mid := byWall[n*2/5 : max(n*3/5, n*2/5+1)]
	var sum iterBudget
	for _, b := range mid {
		sum.wall += b.wall
		for s, v := range b.slices {
			sum.slices[s] += v
		}
	}
	sum.wall /= int64(len(mid))
	for s := range sum.slices {
		sum.slices[s] /= int64(len(mid))
	}
	return sum
}

func (l *spanLog) extend(id int, end int64) {
	if id > 0 {
		l.spans[id-1].End = end
	}
}

func (tr *trainTrace) walkWorker(w *workload, wid int, ev []connEvent) {
	tr.workerEvents += len(ev)
	var (
		iter      = -1
		iterSpan  int
		iterFrom  int64
		installed int64 = -1 // iter-start returned, first request not yet sent
		reqStart  int64 = -1 // request in flight
		assignEnd int64
		tok       int
	)
	add := func(slice int, ns int64) { tr.perIter[iter].slices[slice] += ns }
	for _, e := range ev {
		switch {
		case !e.send && (e.kind == transport.KindIterStart || e.kind == transport.KindShutdown):
			if iter >= 0 {
				// The request sent after the last report waited for the barrier.
				add(sliceBarrierWait, e.end-reqStart)
				tr.log.add(iterSpan, sliceNames[sliceBarrierWait], reqStart, e.end, wid, iter, -1)
				tr.log.extend(iterSpan, e.end)
				tr.perIter[iter].wall += e.end - iterFrom
				reqStart = -1
			}
			if e.kind == transport.KindIterStart {
				iter, iterFrom, installed = int(e.iter), e.end, e.end
				iterSpan = tr.log.add(0, "worker.iteration", e.end, e.end, wid, iter, -1)
			}
		case e.send && e.kind == transport.KindRequest:
			if installed >= 0 {
				gap := e.start - installed
				tr.busyNS += gap
				if w.straggle > 0 && wid == iter%workers {
					add(sliceSleep, int64(w.straggle))
					gap -= int64(w.straggle)
				}
				add(sliceInstall, gap)
				tr.log.add(iterSpan, sliceNames[sliceInstall], installed, e.start, wid, iter, -1)
				installed = -1
			}
			reqStart = e.start
		case !e.send && e.kind == transport.KindAssign:
			tr.reqToAssignNS = append(tr.reqToAssignNS, e.end-reqStart)
			add(sliceReqToAssign, e.end-reqStart)
			assignEnd, tok = e.end, int(e.tok)
		case e.send && e.kind == transport.KindReport:
			tr.computeNS = append(tr.computeNS, e.start-assignEnd)
			tr.reportSendNS = append(tr.reportSendNS, e.end-e.start)
			tr.busyNS += e.start - assignEnd
			add(sliceSleep, int64(w.tokenDelay))
			add(sliceCompute, e.start-assignEnd-int64(w.tokenDelay))
			add(sliceReportSend, e.end-e.start)
			t := tr.log.add(iterSpan, "token", reqStart, e.end, wid, iter, tok)
			tr.log.add(t, sliceNames[sliceReqToAssign], reqStart, assignEnd, wid, iter, tok)
			tr.log.add(t, sliceNames[sliceCompute], assignEnd, e.start, wid, iter, tok)
			tr.log.add(t, sliceNames[sliceReportSend], e.start, e.end, wid, iter, tok)
			reqStart = -1
		}
	}
}

func (tr *trainTrace) walkCoordinator(conns []*tracedConn) {
	var ev []connEvent
	for _, c := range conns {
		ev = append(ev, c.sorted()...)
	}
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].key() < ev[j].key() })
	var (
		lastReport int64
		iter       = -1
		iterSpan   int
		sendNS     int64
	)
	for _, e := range ev {
		switch {
		case e.send && e.kind == transport.KindIterStart:
			if int(e.iter) != iter {
				if iter >= 0 {
					tr.iterSendNS = append(tr.iterSendNS, sendNS)
					tr.barrierNS = append(tr.barrierNS, e.start-lastReport)
					tr.log.add(iterSpan, "rt.barrier", lastReport, e.start, -1, iter, -1)
					tr.log.extend(iterSpan, e.start)
				}
				sendNS, iter = 0, int(e.iter)
				iterSpan = tr.log.add(0, "coord.iteration", e.start, e.end, -1, iter, -1)
			}
			sendNS += e.end - e.start
			tr.log.add(iterSpan, "transport.iterstart_send", e.start, e.end, -1, iter, -1)
		case e.send && e.kind == transport.KindAssign:
			tr.log.add(iterSpan, "transport.assign_send", e.start, e.end, -1, iter, int(e.tok))
		case !e.send && e.kind == transport.KindReport:
			lastReport = e.end
			tr.log.extend(iterSpan, e.end)
		}
	}
	if iter >= 0 {
		tr.iterSendNS = append(tr.iterSendNS, sendNS)
	}
}
