package scheduler

import (
	"fmt"
	"sort"

	"fela/internal/sim"
	"fela/internal/token"
)

// Policy selects which of Fela's scheduling policies are active. The
// zero value disables all three (the ablation baseline).
type Policy struct {
	// ADS enables Aggressive Depth-First Scheduling (§III-D): highest
	// level first, then best locality score. When off, distribution is
	// breadth-first in token-ID order with no locality awareness.
	ADS bool
	// HF enables Hierarchical Fetching (§III-E): per-worker STBs
	// consumed lock-free, with helper prioritization once a worker's
	// own STB drains. When off, all requests contend on the TS lock
	// over a single global bucket.
	HF bool
	// CTD enables Conditional Token Distribution (§III-F): tokens of
	// communication-intensive levels go only to CTDSubset members, with
	// elevated priority there.
	CTD bool
	// CTDSubset lists the workers allowed to train comm-intensive
	// levels. Required when CTD is set.
	CTDSubset []int
}

// FullFela returns the policy with everything enabled and the subset set
// to the given workers.
func FullFela(subset []int) Policy {
	return Policy{ADS: true, HF: true, CTD: true, CTDSubset: subset}
}

// Timing models the Token Server's message and service costs. Messages
// are tiny ("at most hundreds of bytes", §III-A), but the distribution
// decision itself is not free: the prototype's Token Server scans the
// bucket, evaluates locality scores and serializes under a global lock,
// and a collided fetch is rolled back and re-distributed. §III-E exists
// precisely because this locked slow path is expensive; HF's own-STB
// fast path bypasses it.
type Timing struct {
	// RTT is the worker↔TS message round-trip in seconds.
	RTT float64
	// LockService is the distribution decision time under the TS global
	// lock (slow path).
	LockService float64
	// FastService is the lock-free own-STB decision time (fast path).
	FastService float64
	// ConflictPenalty is the extra delay a request pays when it
	// collides with another in-flight slow-path request and must be
	// rolled back and re-distributed (§III-E).
	ConflictPenalty float64
}

// DefaultTiming returns constants representative of a TCP-connected TS
// co-located in the cluster.
func DefaultTiming() Timing {
	return Timing{
		RTT:             200e-6,
		LockService:     8e-3,
		FastService:     50e-6,
		ConflictPenalty: 8e-3,
	}
}

// Stats counts scheduling events for the ablation study.
type Stats struct {
	// Requests is the number of token requests received.
	Requests int
	// FastPath counts lock-free own-STB distributions.
	FastPath int
	// SlowPath counts distributions serialized under the TS lock.
	SlowPath int
	// Conflicts counts slow-path requests that collided with another
	// in-flight request.
	Conflicts int
	// Helped counts tokens a worker took from another worker's STB.
	Helped int
	// Generated counts dynamically generated (level > 0) tokens.
	Generated int
	// Locked counts requests that found no eligible token and had to
	// wait (the "locking problem" of §III-D).
	Locked int
}

// Server is the Token Server: Token Generator + Token Distributor +
// Token Bucket + Info Mapping (Fig. 2).
type Server struct {
	eng    *sim.Engine
	n      int
	pol    Policy
	tim    Timing
	levels []LevelSpec

	bucket  *token.Bucket
	mapping *token.Mapping
	all     map[token.ID]*token.Token
	nextID  token.ID

	iter           int
	remaining      int
	levelRemaining []int
	genBuf         [][]token.ID // completed level-i tokens awaiting grouping
	genCount       []int        // tokens generated so far per level

	lock    *sim.Resource
	pending []pendingReq

	helpTarget map[token.ID]int // stolen token -> STB owner it was taken from
	helpers    map[int]int      // STB owner -> current number of helpers

	inSubset  []bool
	suspended []bool

	// OnLevelComplete, when set, fires once per iteration per level as
	// soon as every token of that level has been reported complete —
	// the signal that starts the sub-model's parameter synchronization.
	OnLevelComplete func(level int)

	stats Stats
	tele  schedTelemetry
}

type pendingReq struct {
	wid int
	cb  func(*token.Token)
}

// NewServer builds a Token Server for n workers and the given levels.
func NewServer(eng *sim.Engine, n int, levels []LevelSpec, pol Policy, tim Timing) *Server {
	if n <= 0 {
		panic("scheduler: need at least one worker")
	}
	if len(levels) == 0 {
		panic("scheduler: need at least one level")
	}
	if pol.CTD && len(pol.CTDSubset) == 0 {
		panic("scheduler: CTD enabled with empty subset")
	}
	s := &Server{
		eng:        eng,
		n:          n,
		pol:        pol,
		tim:        tim,
		levels:     levels,
		bucket:     token.NewBucket(n),
		mapping:    token.NewMapping(),
		all:        make(map[token.ID]*token.Token),
		lock:       sim.NewResource(eng, "ts-lock", 1),
		helpTarget: make(map[token.ID]int),
		helpers:    make(map[int]int),
		inSubset:   make([]bool, n),
		suspended:  make([]bool, n),
	}
	for _, w := range pol.CTDSubset {
		if w < 0 || w >= n {
			panic(fmt.Sprintf("scheduler: CTD subset member %d out of range", w))
		}
		s.inSubset[w] = true
	}
	return s
}

// Stats returns a copy of the accumulated counters.
func (s *Server) Stats() Stats { return s.stats }

// Mapping exposes the Info Mapping (read-mostly; used by the engine to
// locate dependency holders).
func (s *Server) Mapping() *token.Mapping { return s.mapping }

// TokenByID returns a token by ID.
func (s *Server) TokenByID(id token.ID) *token.Token {
	t, ok := s.all[id]
	if !ok {
		panic(fmt.Sprintf("scheduler: unknown token %d", id))
	}
	return t
}

// Done reports whether every token of the current iteration completed.
func (s *Server) Done() bool { return s.remaining == 0 }

// StartIteration seeds the level-0 tokens for iteration it. Level-0
// token j is shard-owned by worker j mod N, giving every worker at least
// one token in its STB (Eq. 2's rationale) and spreading the sample
// shards evenly.
func (s *Server) StartIteration(it int) {
	if s.remaining != 0 {
		panic("scheduler: StartIteration with tokens outstanding")
	}
	s.iter = it
	s.levelRemaining = make([]int, len(s.levels))
	s.genBuf = make([][]token.ID, len(s.levels))
	s.genCount = make([]int, len(s.levels))
	for i, l := range s.levels {
		s.levelRemaining[i] = l.Count
		s.remaining += l.Count
	}
	for j := 0; j < s.levels[0].Count; j++ {
		owner := j % s.n
		t := &token.Token{
			ID:         s.nextID,
			Level:      0,
			Iter:       it,
			Seq:        j,
			Batch:      s.levels[0].Batch,
			ShardOwner: owner,
		}
		s.nextID++
		s.all[t.ID] = t
		s.bucket.Add(owner, t)
	}
	s.genCount[0] = s.levels[0].Count
	s.observeDepth()
	// Requests parked at the end of the previous iteration carry over:
	// those workers are still waiting and are served from the fresh
	// tokens immediately.
	s.servePending()
}

// Request asks the Token Server for a token on behalf of worker wid. cb
// fires when a token is assigned — immediately after the distribution
// delay if one is available, or later when generation frees one. During
// an empty-bucket wait the worker is parked (the "locking problem").
func (s *Server) Request(wid int, cb func(*token.Token)) {
	s.stats.Requests++
	s.tele.requests.Inc()
	s.eng.After(s.tim.RTT/2, func() { s.serve(wid, cb) })
}

func (s *Server) serve(wid int, cb func(*token.Token)) {
	if s.suspended[wid] {
		s.pending = append(s.pending, pendingReq{wid, cb})
		return
	}
	tok, fromOwn, target := s.selectFor(wid)
	if tok == nil {
		s.stats.Locked++
		s.tele.locked.Inc()
		s.pending = append(s.pending, pendingReq{wid, cb})
		s.observeDepth()
		return
	}
	s.dispatch(wid, tok, fromOwn, target, cb)
	s.observeDepth()
}

// dispatch models the distribution delay and then hands the (already
// reserved) token to the worker.
func (s *Server) dispatch(wid int, tok *token.Token, fromOwn bool, target int, cb func(*token.Token)) {
	if !fromOwn && target >= 0 {
		s.stats.Helped++
		s.tele.helped.Inc()
		s.helpTarget[tok.ID] = target
		s.helpers[target]++
	}
	finish := func() {
		s.mapping.RecordAssigned(wid, tok.ID)
		s.eng.After(s.tim.RTT/2, func() { cb(tok) })
	}
	if s.pol.HF && fromOwn {
		s.stats.FastPath++
		s.tele.fastPath.Inc()
		s.eng.After(s.tim.FastService, finish)
		return
	}
	s.stats.SlowPath++
	s.tele.slowPath.Inc()
	penalty := 0.0
	if s.lock.InUse() > 0 {
		// Another distribution is in flight: this request collides,
		// fails its fetch and is re-distributed (§III-E).
		s.stats.Conflicts++
		s.tele.conflicts.Inc()
		penalty = s.tim.ConflictPenalty
	}
	s.lock.Acquire(func() {
		s.eng.After(s.tim.LockService+penalty, func() {
			s.lock.Release()
			finish()
		})
	})
}

// Report tells the server that worker wid finished the token. Fresh
// tokens of the next level are generated as soon as enough completions
// accumulate (§III-B), and parked requests are served.
func (s *Server) Report(wid int, tok *token.Token) {
	s.eng.After(s.tim.RTT/2, func() {
		s.mapping.RecordCompleted(wid, tok.ID)
		if target, ok := s.helpTarget[tok.ID]; ok {
			delete(s.helpTarget, tok.ID)
			s.helpers[target]--
		}
		s.remaining--
		s.levelRemaining[tok.Level]--
		if s.levelRemaining[tok.Level] == 0 && s.OnLevelComplete != nil {
			s.OnLevelComplete(tok.Level)
		}
		s.generateFrom(tok)
		s.servePending()
		s.observeDepth()
	})
}

// generateFrom buffers the completed token and emits a next-level token
// whenever a full dependency group is ready, in completion order.
func (s *Server) generateFrom(tok *token.Token) {
	next := tok.Level + 1
	if next >= len(s.levels) {
		return
	}
	s.genBuf[tok.Level] = append(s.genBuf[tok.Level], tok.ID)
	ratio := s.levels[next].Ratio
	for len(s.genBuf[tok.Level]) >= ratio {
		group := make([]token.ID, ratio)
		copy(group, s.genBuf[tok.Level][:ratio])
		s.genBuf[tok.Level] = s.genBuf[tok.Level][ratio:]
		t := &token.Token{
			ID:         s.nextID,
			Level:      next,
			Iter:       s.iter,
			Seq:        s.genCount[next],
			Batch:      s.levels[next].Batch,
			Deps:       group,
			ShardOwner: -1,
		}
		s.nextID++
		s.all[t.ID] = t
		s.genCount[next]++
		s.stats.Generated++
		s.tele.generated.Inc()
		s.bucket.Add(s.stbFor(t), t)
	}
}

// stbFor picks the STB a fresh token lands in: the majority dependency
// holder (maximizing ADS locality), redirected into the CTD subset for
// comm-intensive levels.
func (s *Server) stbFor(t *token.Token) int {
	owner, ok := s.mapping.MajorityHolder(t)
	if !ok {
		owner = int(t.ID) % s.n
	}
	if s.pol.CTD && s.levels[t.Level].CommIntensive && !s.inSubset[owner] {
		// Least-loaded subset member, ties to the smallest id.
		best, bestLen := -1, 0
		for _, w := range s.pol.CTDSubset {
			if l := s.bucket.STBLen(w); best == -1 || l < bestLen {
				best, bestLen = w, l
			}
		}
		owner = best
	}
	return owner
}

// Suspend marks a worker asleep: its parked or arriving requests are not
// served until Resume. This models an injected straggler process that
// sends its token request only after its sleep ends (§V-C2 injection on
// the worker's training thread); meanwhile helpers drain its STB.
func (s *Server) Suspend(wid int) { s.suspended[wid] = true }

// Resume wakes a suspended worker and serves its parked request if
// tokens are available.
func (s *Server) Resume(wid int) {
	s.suspended[wid] = false
	s.servePending()
}

// servePending retries parked requests in FIFO order. A single forward
// pass suffices: serving a request only removes tokens from the bucket
// (dispatch side effects are deferred through the engine), so a request
// skipped earlier in the pass cannot become servable later in the same
// pass. Unserved requests are compacted in place, keeping their arrival
// order, in O(n) instead of the splice-and-rescan O(n²).
func (s *Server) servePending() {
	kept := s.pending[:0]
	for _, p := range s.pending {
		if s.suspended[p.wid] {
			kept = append(kept, p)
			continue
		}
		tok, fromOwn, target := s.selectFor(p.wid)
		if tok == nil {
			kept = append(kept, p)
			continue
		}
		s.dispatch(p.wid, tok, fromOwn, target, p.cb)
	}
	// Clear the tail so served callbacks do not pin memory.
	for i := len(kept); i < len(s.pending); i++ {
		s.pending[i] = pendingReq{}
	}
	s.pending = kept
	s.observeDepth()
}

// eligible reports whether the worker may receive the token under CTD.
func (s *Server) eligible(wid int, t *token.Token) bool {
	if s.pol.CTD && s.levels[t.Level].CommIntensive && !s.inSubset[wid] {
		return false
	}
	return true
}

// selectFor picks (and reserves) the best token for the worker, or nil.
// It returns whether the token came from the worker's own STB and, if
// stolen, from whose.
func (s *Server) selectFor(wid int) (tok *token.Token, fromOwn bool, target int) {
	target = -1
	if s.pol.HF {
		if t := s.pickFrom(s.bucket.STBTokens(wid), wid); t != nil {
			s.bucket.Remove(t.ID)
			return t, true, -1
		}
		// Helper mode: assist the straggler with the least helpers and
		// the slowest progress (largest STB backlog).
		best := -1
		bestHelpers, bestLen := 0, 0
		for w := 0; w < s.n; w++ {
			if w == wid {
				continue
			}
			if s.pickFrom(s.bucket.STBTokens(w), wid) == nil {
				continue
			}
			h, l := s.helpers[w], s.bucket.STBLen(w)
			if best == -1 || h < bestHelpers || (h == bestHelpers && l > bestLen) {
				best, bestHelpers, bestLen = w, h, l
			}
		}
		if best == -1 {
			return nil, false, -1
		}
		t := s.pickFrom(s.bucket.STBTokens(best), wid)
		s.bucket.Remove(t.ID)
		return t, false, best
	}
	if t := s.pickFrom(s.bucket.AllTokens(), wid); t != nil {
		s.bucket.Remove(t.ID)
		return t, false, -1
	}
	return nil, false, -1
}

// pickFrom applies the distribution policies to an ID-sorted candidate
// list and returns the chosen token without removing it.
func (s *Server) pickFrom(cands []*token.Token, wid int) *token.Token {
	var best *token.Token
	var bestKey [3]float64
	for _, t := range cands {
		if !s.eligible(wid, t) {
			continue
		}
		key := s.priorityKey(wid, t)
		if best == nil || less(key, bestKey) {
			best, bestKey = t, key
		}
	}
	return best
}

// priorityKey orders candidates; smaller keys win. Components:
//  1. class — CTD members see comm-intensive levels first;
//  2. level — descending under ADS Principle 1, ascending otherwise;
//  3. locality — higher Eq. 1 score first under ADS Principle 2.
//
// Ties fall back to token ID via the sorted candidate order.
func (s *Server) priorityKey(wid int, t *token.Token) [3]float64 {
	class := 0.0
	if s.pol.CTD && s.inSubset[wid] && !s.levels[t.Level].CommIntensive {
		class = 1 // comm-intensive first for subset members (§III-F)
	}
	level := float64(t.Level)
	if s.pol.ADS {
		level = -level // Principle 1: highest level first
	}
	locality := 0.0
	if s.pol.ADS {
		locality = -s.mapping.LocalityScore(wid, t) // Principle 2
	}
	return [3]float64{class, level, locality}
}

func less(a, b [3]float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// ActiveHelpers returns how many stolen tokens are currently in flight —
// workers training a token taken from another worker's STB. It returns
// to zero once every stolen token is reported (diagnostics, and the
// invariant the property tests pin down).
func (s *Server) ActiveHelpers() int {
	n := 0
	for _, c := range s.helpers {
		n += c
	}
	return n
}

// PendingWorkers returns the ids of workers parked waiting for tokens
// (diagnostics).
func (s *Server) PendingWorkers() []int {
	out := make([]int, 0, len(s.pending))
	for _, p := range s.pending {
		out = append(out, p.wid)
	}
	sort.Ints(out)
	return out
}
