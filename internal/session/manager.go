package session

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
	"queryaudit/internal/qindex"
	"queryaudit/internal/query"
)

// DefaultAnalyst is the session used when a request carries no analyst
// identity — the back-compat path for single-analyst clients.
const DefaultAnalyst = "default"

var (
	// ErrTooManySessions reports admission-control refusal; HTTP callers
	// map it to 503 with Retry-After.
	ErrTooManySessions = errors.New("session: session limit reached")
	// ErrApplyStale reports a replicated event whose sequence number the
	// session has already applied (harmless re-delivery after a snapshot
	// resync; the caller skips it).
	ErrApplyStale = errors.New("session: replicated event already applied")
	// ErrApplyGap reports a replicated event that skips ahead of the
	// session's journal — events were lost and the follower must resync
	// from a fresh primary snapshot.
	ErrApplyGap = errors.New("session: replicated event leaves a sequence gap")
)

// Mark names a position in one session's journal: the sequence number of
// an event and the transcript digest after it. Replication ships a Mark
// with every record so the receiving side can verify, event by event,
// that its rebuilt timeline is bit-identical to the sender's.
type Mark struct {
	Analyst string
	Seq     uint64
	Digest  core.Digest
}

// Tap receives every journal append committed by live traffic, for the
// replication feed. TapDecision fires once per committed protocol
// decision, under the session's log lock, in per-session sequence order.
// TapUpdate fires once per global dataset update (which appends one
// marker to EVERY session's journal), with the per-session marks, while
// the dataset lock is still held exclusively — so the feed observes the
// update at the same point of every session's timeline as the journals
// do. Implementations must be fast and must not call back into the
// manager.
type Tap interface {
	TapDecision(analyst string, seq uint64, ev core.DecisionEvent, digest core.Digest)
	TapUpdate(index int, value float64, marks []Mark)
}

// Config are the manager's memory-bounding knobs.
type Config struct {
	// MaxSessions caps tracked sessions (live engines + evicted logs).
	// Admission beyond the cap fails with ErrTooManySessions. 0 means
	// unlimited.
	MaxSessions int
	// MaxLive caps materialized engines: materializing one more evicts
	// the least-recently-used idle engine down to its log. Sessions whose
	// engines are all busy are skipped, so the bound is soft under
	// extreme concurrency (it can overshoot by the number of in-flight
	// requests, never more). 0 means unlimited.
	MaxLive int
	// TTL removes sessions idle longer than this — log included, so a
	// returning analyst starts a fresh privacy budget; size it to the
	// analyst credential lifetime (see docs/DEPLOYMENT.md §11). 0 means
	// never expire.
	TTL time.Duration
	// Shards is the lock-shard count for the session table (0 → 16).
	Shards int
	// Observer counts lifecycle events (nil → none).
	Observer *metrics.SessionCollector
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// NoJanitor disables the background TTL sweeper; tests drive Sweep
	// directly.
	NoJanitor bool
}

// Session is one analyst's isolated audit state: a replayable journal
// plus, while materialized, an engine whose auditors have replayed it.
type Session struct {
	analyst string
	// mu serializes this session's protocol steps and engine lifecycle
	// (materialize/evict). Lock order: Manager.dsMu → shard.mu → mu →
	// Manager.lruMu.
	mu sync.Mutex
	// log is internally synchronized and its pointer is only swapped
	// (Restore) with mu held before the session serves traffic, so it is
	// deliberately not guardedby-annotated.
	log *Log
	// eng is nil when evicted to the log.
	// auditlint:guardedby(mu)
	eng *core.Engine
	// gone marks a session removed from its shard; holders of a stale
	// pointer must retry the lookup.
	// auditlint:guardedby(mu)
	gone bool
	// liveFlag mirrors eng != nil for lock-free stats and listing reads.
	liveFlag  atomic.Bool
	lastTouch atomic.Int64 // unix nanos of last access
	// lruPrev/lruNext link the session into the manager's recency list
	// while it is live (only when MaxLive > 0); both are nil
	// otherwise. They are guarded by Manager.lruMu, which is not a
	// sibling field, so they are deliberately not guardedby-annotated.
	// A session joins or leaves the list only with its mu held.
	lruPrev, lruNext *Session
}

func (s *Session) touch(t time.Time) { s.lastTouch.Store(t.UnixNano()) }

type shard struct {
	mu sync.Mutex
	// auditlint:guardedby(mu)
	sessions map[string]*Session
}

// Manager is the session layer between transport and engine: it routes
// each analyst to an isolated engine built from one shared EngineSpec,
// bounds memory by evicting idle engines down to their logs, and
// reconstructs evicted sessions bit-identically by replay.
type Manager struct {
	spec  *core.EngineSpec
	ds    *dataset.Dataset
	cfg   Config
	obs   *metrics.SessionCollector
	clock func() time.Time

	shards []*shard
	// dsMu guards the shared dataset's mutable half (sensitive values):
	// queries hold it shared, updates exclusively — an update is a global
	// barrier across every session. Lock order: dsMu before shard.mu
	// before Session.mu before lruMu.
	dsMu  sync.RWMutex
	total atomic.Int64 // tracked sessions
	live  atomic.Int64 // materialized engines

	// lruMu guards the recency list of live sessions, kept only
	// when MaxLive > 0: lru is its sentinel, lru.lruNext the most recently
	// used session and lru.lruPrev the next eviction victim. It is a leaf
	// lock: while holding it, code may only TryLock a Session.mu.
	lruMu sync.Mutex
	lru   Session

	// tap is the replication feed (a Tap), installed once before the
	// manager serves traffic; nil Value means no feed.
	tap atomic.Value

	supportsUpdates bool

	stop     chan struct{}
	stopOnce sync.Once
}

// NewManager builds a sharded session manager over spec. The default
// session is materialized eagerly, so the deployment fails fast if the
// spec cannot build and the common single-analyst path never pays a
// first-request build.
func NewManager(spec *core.EngineSpec, cfg Config) (*Manager, error) {
	if spec == nil {
		return nil, errors.New("session: nil EngineSpec")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	m := &Manager{
		spec:   spec,
		ds:     spec.Dataset(),
		cfg:    cfg,
		obs:    cfg.Observer,
		clock:  clock,
		shards: make([]*shard, cfg.Shards),
		stop:   make(chan struct{}),
	}
	for i := range m.shards {
		m.shards[i] = &shard{sessions: map[string]*Session{}}
	}
	m.lru.lruPrev, m.lru.lruNext = &m.lru, &m.lru
	// Eager default: also determines once whether the stack supports
	// updates (factories are homogeneous across sessions).
	m.dsMu.RLock()
	s, err := m.acquire(DefaultAnalyst)
	m.dsMu.RUnlock()
	if err != nil {
		return nil, err
	}
	m.supportsUpdates = s.eng.SupportsUpdates()
	s.mu.Unlock()
	if cfg.TTL > 0 && !m.cfg.NoJanitor {
		go m.janitor()
	}
	return m, nil
}

// Close stops the background TTL sweeper (idempotent).
func (m *Manager) Close() { m.stopOnce.Do(func() { close(m.stop) }) }

// SetTap installs the replication feed. Install it before the manager
// serves traffic; events committed while no tap is installed are not
// replayable from the feed (a follower recovers them via a snapshot
// resync instead).
func (m *Manager) SetTap(t Tap) { m.tap.Store(t) }

// loadTap returns the installed tap, if any.
func (m *Manager) loadTap() Tap {
	t, _ := m.tap.Load().(Tap)
	return t
}

// wireLog points a (new, not yet shared) log's notify hook at the
// manager's replication tap. Every log a session ever owns — created on
// admission, restored from a snapshot — must pass through here, or its
// live decisions would be invisible to replication.
func (m *Manager) wireLog(analyst string, lg *Log) {
	lg.notify = func(seq uint64, ev core.DecisionEvent, d core.Digest) {
		if t := m.loadTap(); t != nil {
			t.TapDecision(analyst, seq, ev, d)
		}
	}
}

// Dataset returns the shared dataset.
func (m *Manager) Dataset() *dataset.Dataset { return m.ds }

// Resolver returns the deployment-shared indexed query resolver over
// the dataset: one index and one interner for ALL sessions, so the
// transport layer resolves each statement once and routes the interned
// set to any analyst's engine. It is the spec's resolver, so out-of-band
// consumers of the spec see the same canonical sets.
func (m *Manager) Resolver() *qindex.Resolver { return m.spec.Resolver() }

// Live returns the number of materialized engines.
func (m *Manager) Live() int { return int(m.live.Load()) }

// Tracked returns the number of tracked sessions (live + evicted logs).
func (m *Manager) Tracked() int { return int(m.total.Load()) }

func (m *Manager) shardOf(analyst string) (*shard, int) {
	h := fnv.New32a()
	_, _ = h.Write([]byte(analyst))
	i := int(h.Sum32() % uint32(len(m.shards)))
	return m.shards[i], i
}

// lockShard acquires a shard lock, reporting contention to the collector.
//
// auditlint:acquires(mu)
func (m *Manager) lockShard(sh *shard, idx int) {
	if sh.mu.TryLock() {
		return
	}
	m.obs.ObserveShardWait(idx, 1)
	sh.mu.Lock()
	m.obs.ObserveShardWait(idx, -1)
}

// acquire returns the analyst's session with its mutex HELD and its
// engine materialized; the caller must Unlock. Callers hold dsMu (any
// mode).
//
// auditlint:acquires(mu)
func (m *Manager) acquire(analyst string) (*Session, error) {
	s, err := m.lookupOrCreate(analyst)
	if err != nil {
		return nil, err
	}
	if s.eng == nil {
		if err := m.materializeLocked(s); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	return s, nil
}

// lookupOrCreate returns the analyst's session with its mutex HELD but
// possibly no engine (evicted sessions stay evicted — journal-only
// operations like replicated update markers don't pay a rebuild).
// Callers hold dsMu (any mode).
//
// auditlint:acquires(mu)
func (m *Manager) lookupOrCreate(analyst string) (*Session, error) {
	for {
		sh, idx := m.shardOf(analyst)
		m.lockShard(sh, idx)
		s := sh.sessions[analyst]
		created := false
		if s == nil {
			if !m.reserveSession() {
				sh.mu.Unlock()
				m.obs.ObserveSessionRejected()
				return nil, fmt.Errorf("%w (max %d analysts)", ErrTooManySessions, m.cfg.MaxSessions)
			}
			s = &Session{analyst: analyst, log: NewLog()}
			m.wireLog(analyst, s.log)
			s.touch(m.clock())
			sh.sessions[analyst] = s
			created = true
		}
		sh.mu.Unlock()
		if created {
			m.obs.ObserveSessionCreated()
		}
		s.mu.Lock()
		if s.gone {
			// Expired between lookup and lock; retry with a fresh entry.
			s.mu.Unlock()
			continue
		}
		s.touch(m.clock())
		if s.eng != nil {
			m.lruFront(s)
		}
		return s, nil
	}
}

// reserveSession counts one more tracked session, or reports false if
// that would exceed MaxSessions. The compare-and-swap makes the check
// and the increment one step, so admissions racing on different shards
// cannot overshoot the cap together.
func (m *Manager) reserveSession() bool {
	for {
		n := m.total.Load()
		if m.cfg.MaxSessions > 0 && n >= int64(m.cfg.MaxSessions) {
			return false
		}
		if m.total.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// materializeLocked rebuilds s's engine from its journal; s.mu is held.
func (m *Manager) materializeLocked(s *Session) error {
	m.evictForCapacity()
	start := time.Now()
	events := s.log.Events()
	eng, err := m.replayEvents(s.analyst, events)
	if err != nil {
		return err
	}
	m.installEngineLocked(s, eng)
	if len(events) > 0 {
		m.obs.ObserveReplay(len(events), time.Since(start))
	}
	return nil
}

// replayEvents builds a fresh engine and replays the analyst's journal
// events into it. It touches no session state, so it may run for many
// journals at once.
func (m *Manager) replayEvents(analyst string, events []Event) (*core.Engine, error) {
	eng, err := m.spec.Build()
	if err != nil {
		return nil, err
	}
	for i, ev := range events {
		if ev.Update {
			err = eng.NoteUpdate(ev.Index)
		} else {
			err = eng.Replay(ev.Decision)
		}
		if err != nil {
			return nil, fmt.Errorf("session: %q event %d: %w", analyst, i, err)
		}
	}
	return eng, nil
}

// installEngineLocked makes eng, which has replayed s's whole journal,
// s's live engine; s.mu is held.
func (m *Manager) installEngineLocked(s *Session, eng *core.Engine) {
	// Journal only after the journal has been drained, or replay would
	// re-append every event.
	eng.SetRecorder(s.log)
	s.eng = eng
	s.liveFlag.Store(true)
	m.lruFront(s)
	m.live.Add(1)
	m.obs.ObserveLive(1)
}

// evictForCapacity drops least-recently-used idle engines until the
// MaxLive bound has room for one more build.
func (m *Manager) evictForCapacity() {
	if m.cfg.MaxLive <= 0 {
		return
	}
	for int(m.live.Load()) >= m.cfg.MaxLive {
		if !m.evictOldest() {
			return // every candidate busy: soft bound
		}
	}
}

// evictOldest evicts the least recently used idle session's engine down
// to its log. It walks the recency list from the tail and drops the
// first session whose mutex it can take: a busy session (mutex held by
// an in-flight request, or by the caller materializing it) is skipped,
// and TryLock also rules out deadlock with concurrent materializations.
// The cost does not depend on how many sessions are tracked.
func (m *Manager) evictOldest() bool {
	var victim *Session
	m.lruMu.Lock()
	for s := m.lru.lruPrev; s != &m.lru; s = s.lruPrev {
		if s.mu.TryLock() {
			victim = s
			break
		}
	}
	m.lruMu.Unlock()
	if victim == nil {
		return false
	}
	// A listed session is live and not gone, and stays listed
	// while its mutex is held.
	m.dropEngineLocked(victim)
	m.obs.ObserveSessionEvicted()
	victim.mu.Unlock()
	return true
}

// lruFront moves s to the front of the recency list, linking it if it
// is not listed yet; s is live and s.mu is held.
func (m *Manager) lruFront(s *Session) {
	if m.cfg.MaxLive <= 0 {
		return
	}
	m.lruMu.Lock()
	s.lruSplice()
	s.lruPrev, s.lruNext = &m.lru, m.lru.lruNext
	m.lru.lruNext.lruPrev = s
	m.lru.lruNext = s
	m.lruMu.Unlock()
}

// lruUnlink takes s off the recency list if it is listed; s.mu is held.
func (m *Manager) lruUnlink(s *Session) {
	if m.cfg.MaxLive <= 0 {
		return
	}
	m.lruMu.Lock()
	s.lruSplice()
	m.lruMu.Unlock()
}

// lruSplice takes s out of the recency list if it is listed; the caller
// holds Manager.lruMu.
func (s *Session) lruSplice() {
	if s.lruNext != nil {
		s.lruPrev.lruNext, s.lruNext.lruPrev = s.lruNext, s.lruPrev
		s.lruPrev, s.lruNext = nil, nil
	}
}

// dropEngineLocked discards s's engine (the log remains); s.mu is held.
func (m *Manager) dropEngineLocked(s *Session) {
	m.lruUnlink(s)
	s.eng = nil
	s.liveFlag.Store(false)
	m.live.Add(-1)
	m.obs.ObserveLive(-1)
}

// EvictEngine forcibly evicts one session's engine down to its log
// (admin/testing hook). Reports whether an engine was dropped; unknown
// analysts are left alone.
func (m *Manager) EvictEngine(analyst string) bool {
	sh, idx := m.shardOf(analyst)
	m.lockShard(sh, idx)
	s := sh.sessions[analyst]
	sh.mu.Unlock()
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eng == nil || s.gone {
		return false
	}
	m.dropEngineLocked(s)
	m.obs.ObserveSessionEvicted()
	return true
}

// Ask routes one query to the analyst's session, creating or
// rematerializing it as needed.
func (m *Manager) Ask(analyst string, q query.Query) (core.Response, error) {
	m.dsMu.RLock()
	defer m.dsMu.RUnlock()
	s, err := m.acquire(analyst)
	if err != nil {
		return core.Response{Denied: true}, err
	}
	defer s.mu.Unlock()
	return s.eng.Ask(q)
}

// Prime answers the analyst's must-have queries up front (the paper's §7
// remedy), scoped to that analyst's session.
func (m *Manager) Prime(analyst string, qs []query.Query) error {
	m.dsMu.RLock()
	defer m.dsMu.RUnlock()
	s, err := m.acquire(analyst)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	return s.eng.Prime(qs)
}

// Knowledge reports the analyst's per-record exposure (materializing the
// session if needed — the report requires auditor state).
func (m *Manager) Knowledge(analyst string) (map[string][]audit.ElementKnowledge, error) {
	m.dsMu.RLock()
	defer m.dsMu.RUnlock()
	s, err := m.acquire(analyst)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	return s.eng.KnowledgeSnapshot(), nil
}

// Update modifies record i's sensitive value GLOBALLY: the dataset is
// shared, so the mutation is applied once, and every session — live or
// evicted — journals the update at the current position of its timeline
// (live engines additionally retire stale constraints immediately).
// Updates exclude all queries for their duration (dsMu held
// exclusively), making the cross-session ordering well-defined.
func (m *Manager) Update(i int, v float64) error {
	m.dsMu.Lock()
	defer m.dsMu.Unlock()
	if i < 0 || i >= m.ds.N() {
		return fmt.Errorf("session: index %d out of range", i)
	}
	if !m.supportsUpdates {
		return errors.New("session: auditor stack does not support updates")
	}
	m.ds.SetSensitive(i, v)
	var sessions []*Session
	for idx, sh := range m.shards {
		m.lockShard(sh, idx)
		for _, s := range sh.sessions {
			sessions = append(sessions, s)
		}
		sh.mu.Unlock()
	}
	marks := make([]Mark, 0, len(sessions))
	for _, s := range sessions {
		s.mu.Lock()
		if !s.gone {
			seq, d := s.log.AppendUpdate(i)
			marks = append(marks, Mark{Analyst: s.analyst, Seq: seq, Digest: d})
			if s.eng != nil {
				if err := s.eng.NoteUpdate(i); err != nil {
					s.mu.Unlock()
					return err
				}
			}
		}
		s.mu.Unlock()
	}
	// Tap the update ONCE, globally, while dsMu is still held exclusively:
	// the feed sees it at exactly the journal position every session
	// recorded, and no decision can interleave (decisions hold dsMu
	// shared).
	if t := m.loadTap(); t != nil {
		t.TapUpdate(i, v, marks)
	}
	return nil
}

// ApplyDecision applies one replicated protocol decision to the
// analyst's session: the engine retraces the decision exactly as the
// primary took it (core.Engine.Replay — simulatability makes that a
// deterministic function of journal history) and the journal appends it
// WITHOUT re-tapping it into this node's feed. seq is the primary's
// per-session sequence number for the event; out-of-order delivery is
// rejected (ErrApplyStale / ErrApplyGap) so a follower can detect lost
// records and fall back to a snapshot resync. The returned digest is the
// local transcript digest after the event — the caller compares it with
// the primary's to detect divergence.
func (m *Manager) ApplyDecision(analyst string, seq uint64, ev core.DecisionEvent) (core.Digest, error) {
	m.dsMu.RLock()
	defer m.dsMu.RUnlock()
	s, err := m.acquire(analyst)
	if err != nil {
		return core.Digest{}, err
	}
	defer s.mu.Unlock()
	cur := s.log.Seq()
	if seq <= cur {
		return core.Digest{}, fmt.Errorf("%w: have %d, got %d", ErrApplyStale, cur, seq)
	}
	if seq != cur+1 {
		return core.Digest{}, fmt.Errorf("%w: have %d, got %d", ErrApplyGap, cur, seq)
	}
	if err := s.eng.Replay(ev); err != nil {
		return core.Digest{}, err
	}
	_, d := s.log.appendApplied(ev)
	return d, nil
}

// ApplyOutcome reports one session's result of ApplyUpdate: the local
// journal position after the marker, or the error that prevented it.
type ApplyOutcome struct {
	Analyst string
	Seq     uint64
	Digest  core.Digest
	Err     error
}

// ApplyUpdate applies one replicated global dataset update: the
// sensitive-value mutation exactly once, plus a journal marker for
// precisely the sessions the primary listed (its session set at the time
// of the update; a session unknown here is created, so an update can be
// the first event of a session's timeline). Marks whose sequence number
// is already applied are skipped as re-delivery; if EVERY mark is stale
// the mutation itself is skipped too, keeping the modification counter
// aligned with the primary's. Per-session failures (sequence gaps,
// admission refusal) are reported in the outcomes, not fatal to the
// other sessions. Unless the error is non-nil, the outcomes pair with
// marks by position: outcome i reports marks[i].
func (m *Manager) ApplyUpdate(index int, value float64, marks []Mark) ([]ApplyOutcome, error) {
	m.dsMu.Lock()
	defer m.dsMu.Unlock()
	if index < 0 || index >= m.ds.N() {
		return nil, fmt.Errorf("session: update index %d out of range", index)
	}
	if !m.supportsUpdates {
		return nil, errors.New("session: auditor stack does not support updates")
	}
	stale := 0
	for _, mk := range marks {
		if s := m.peek(mk.Analyst); s != nil && s.log.Seq() >= mk.Seq {
			stale++
		}
	}
	if len(marks) > 0 && stale == len(marks) {
		return nil, fmt.Errorf("%w: update already applied to all %d sessions", ErrApplyStale, stale)
	}
	m.ds.SetSensitive(index, value)
	out := make([]ApplyOutcome, 0, len(marks))
	for _, mk := range marks {
		out = append(out, m.applyUpdateMark(index, mk))
	}
	return out, nil
}

// applyUpdateMark appends one session's update marker; dsMu is held
// exclusively. The session's engine is NOT materialized for this — an
// evicted journal takes the marker directly and any later rebuild
// replays it in order — but a live engine is notified immediately, like
// Update does.
func (m *Manager) applyUpdateMark(index int, mk Mark) ApplyOutcome {
	o := ApplyOutcome{Analyst: mk.Analyst}
	s, err := m.lookupOrCreate(mk.Analyst)
	if err != nil {
		o.Err = err
		return o
	}
	defer s.mu.Unlock()
	cur := s.log.Seq()
	if mk.Seq <= cur {
		o.Seq, o.Digest = s.log.Position()
		o.Err = fmt.Errorf("%w: have %d, got %d", ErrApplyStale, cur, mk.Seq)
		return o
	}
	if mk.Seq != cur+1 {
		o.Err = fmt.Errorf("%w: have %d, got %d", ErrApplyGap, cur, mk.Seq)
		return o
	}
	if s.eng != nil {
		if err := s.eng.NoteUpdate(index); err != nil {
			o.Err = err
			return o
		}
	}
	o.Seq, o.Digest = s.log.AppendUpdate(index)
	return o
}

// peek returns the analyst's session without creating, materializing or
// touching it (nil if unknown).
func (m *Manager) peek(analyst string) *Session {
	sh, idx := m.shardOf(analyst)
	m.lockShard(sh, idx)
	defer sh.mu.Unlock()
	return sh.sessions[analyst]
}

// SeqOf returns the analyst's current journal sequence number and
// whether the session exists, without creating or materializing it.
func (m *Manager) SeqOf(analyst string) (uint64, bool) {
	s := m.peek(analyst)
	if s == nil {
		return 0, false
	}
	return s.log.Seq(), true
}

// PositionOf returns the analyst's current journal position (seq and
// transcript digest) and whether the session exists, without creating or
// materializing it.
func (m *Manager) PositionOf(analyst string) (uint64, core.Digest, bool) {
	s := m.peek(analyst)
	if s == nil {
		return 0, core.Digest{}, false
	}
	seq, d := s.log.Position()
	return seq, d, true
}

// Export returns a snapshot of the analyst's journal (digest chain
// included) without creating, materializing or touching the session.
// The snapshot is internally consistent — Log.Snapshot holds the log
// lock — so a concurrent decision lands either wholly before or wholly
// after the cut.
func (m *Manager) Export(analyst string) (LogSnapshot, bool) {
	s := m.peek(analyst)
	if s == nil {
		return LogSnapshot{}, false
	}
	return s.log.Snapshot(analyst), true
}

// Drop removes one session outright — engine AND journal — regardless of
// TTL. Replication uses it when a primary
// restarts an analyst's timeline (a shipped event with sequence number 1
// for a session this node knows at a higher sequence) and when an
// operator clears a quarantined session. Reports whether a session was
// removed.
func (m *Manager) Drop(analyst string) bool {
	sh, idx := m.shardOf(analyst)
	m.lockShard(sh, idx)
	s := sh.sessions[analyst]
	sh.mu.Unlock()
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return false
	}
	if s.eng != nil {
		m.dropEngineLocked(s)
	}
	s.gone = true
	m.lockShard(sh, idx)
	if sh.sessions[analyst] == s {
		delete(sh.sessions, analyst)
	}
	sh.mu.Unlock()
	m.total.Add(-1)
	m.obs.ObserveSessionRemoved(false)
	return true
}

// Stats is a session-scoped view of the protocol counters plus the
// global dataset tallies. It never creates or materializes a session:
// counters come from the journal's running tallies, so polling stats for
// an evicted (or unknown) analyst stays O(1).
type Stats struct {
	Analyst       string
	Answered      int
	Denied        int
	Live          bool
	LogEvents     int
	Records       int
	Modifications int
}

// Stats returns the analyst's session stats (zeros for an unknown one).
func (m *Manager) Stats(analyst string) Stats {
	st := Stats{Analyst: analyst}
	m.dsMu.RLock()
	st.Records = m.ds.N()
	st.Modifications = m.ds.Modifications()
	m.dsMu.RUnlock()
	sh, idx := m.shardOf(analyst)
	m.lockShard(sh, idx)
	s := sh.sessions[analyst]
	sh.mu.Unlock()
	if s != nil {
		st.Answered, st.Denied = s.log.Tallies()
		st.LogEvents = s.log.Len()
		st.Live = s.liveFlag.Load()
	}
	return st
}

// Info is one row of the admin session listing. Seq and Digest name the
// session's journal position: the last applied sequence number and the
// transcript digest after it — comparable across primary and replicas to
// spot lag or divergence at a glance.
type Info struct {
	Analyst   string  `json:"analyst"`
	Live      bool    `json:"live"`
	LogEvents int     `json:"log_events"`
	Seq       uint64  `json:"seq"`
	Digest    string  `json:"digest,omitempty"`
	Answered  int     `json:"answered"`
	Denied    int     `json:"denied"`
	IdleSecs  float64 `json:"idle_seconds"`
}

// Sessions lists every tracked session, sorted by analyst ID. The
// slice is non-nil so an empty table serializes as [], not null.
func (m *Manager) Sessions() []Info {
	now := m.clock()
	out := []Info{}
	for idx, sh := range m.shards {
		m.lockShard(sh, idx)
		for _, s := range sh.sessions {
			a, d := s.log.Tallies()
			seq, dig := s.log.Position()
			out = append(out, Info{
				Analyst:   s.analyst,
				Live:      s.liveFlag.Load(),
				LogEvents: s.log.Len(),
				Seq:       seq,
				Digest:    dig.Hex(),
				Answered:  a,
				Denied:    d,
				IdleSecs:  now.Sub(time.Unix(0, s.lastTouch.Load())).Seconds(),
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Analyst < out[j].Analyst })
	return out
}

// LogSnapshots exports every session's journal (sorted by analyst) for
// persistence.
//
// The dataset lock is held shared across the WHOLE export, so a
// concurrent Update (which appends a marker to every journal under the
// exclusive lock) can never be captured half-applied — some sessions
// with the marker, others without. Replication's snapshot-then-stream
// handoff depends on that atomicity: a torn capture would make the
// update record partially stale for a restoring follower.
func (m *Manager) LogSnapshots() []LogSnapshot {
	m.dsMu.RLock()
	defer m.dsMu.RUnlock()
	return m.logSnapshotsLocked()
}

// logSnapshotsLocked is the body of LogSnapshots; callers hold dsMu.
func (m *Manager) logSnapshotsLocked() []LogSnapshot {
	var out []LogSnapshot
	for idx, sh := range m.shards {
		m.lockShard(sh, idx)
		for _, s := range sh.sessions {
			out = append(out, s.log.Snapshot(s.analyst))
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Analyst < out[j].Analyst })
	return out
}

// ReplicaSnapshot captures every session journal AND the dataset's
// mutable half in one consistent cut under the shared dataset lock: no
// update can land between the two, so a follower seeded from the pair
// sees values exactly as of the journals' positions.
func (m *Manager) ReplicaSnapshot() ([]LogSnapshot, dataset.SensitiveState) {
	m.dsMu.RLock()
	defer m.dsMu.RUnlock()
	return m.logSnapshotsLocked(), m.ds.SensitiveState()
}

// RestoreSensitiveState overwrites the shared dataset's mutable half
// under the exclusive dataset lock — the follower-resync counterpart of
// ReplicaSnapshot. Live engines' auditors are NOT notified: callers
// restore journals (whose update markers carry the notifications) in the
// same resync.
func (m *Manager) RestoreSensitiveState(st dataset.SensitiveState) error {
	m.dsMu.Lock()
	defer m.dsMu.Unlock()
	return m.ds.RestoreSensitive(st)
}

// Sweep removes sessions idle longer than the TTL (log included — see
// Config.TTL for the privacy implications) and reports how many were
// expired. Busy sessions are skipped and caught by a later sweep.
func (m *Manager) Sweep(now time.Time) int {
	if m.cfg.TTL <= 0 {
		return 0
	}
	cutoff := now.Add(-m.cfg.TTL).UnixNano()
	expired := 0
	for idx, sh := range m.shards {
		m.lockShard(sh, idx)
		for name, s := range sh.sessions {
			if s.lastTouch.Load() > cutoff {
				continue
			}
			if !s.mu.TryLock() {
				continue
			}
			if s.gone || s.lastTouch.Load() > cutoff {
				s.mu.Unlock()
				continue
			}
			if s.eng != nil {
				m.dropEngineLocked(s)
			}
			s.gone = true
			delete(sh.sessions, name)
			m.total.Add(-1)
			expired++
			m.obs.ObserveSessionRemoved(true)
			s.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	return expired
}

// janitor periodically sweeps expired sessions until Close.
func (m *Manager) janitor() {
	interval := m.cfg.TTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.Sweep(m.clock())
		}
	}
}
