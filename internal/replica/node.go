// Package replica implements journal-shipping replication for the audit
// server: a primary journals every committed session decision and every
// dataset update into a totally-ordered log, and followers long-poll
// that log over HTTP, rebuilding bit-identical auditor state through the
// simulatability replay in internal/core. Followers serve read-only
// traffic; writes are fenced to whichever node holds the highest cluster
// epoch. Every shipped record carries the primary's transcript digest,
// and a follower whose replay lands on a different digest quarantines
// that session instead of serving provably-divergent answers.
package replica

import (
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"queryaudit/internal/core"
	"queryaudit/internal/metrics"
	"queryaudit/internal/session"
)

// Role is a node's position in the cluster.
type Role int32

const (
	// RoleReplica serves reads from replayed state and rejects writes.
	RoleReplica Role = iota
	// RolePrimary accepts writes and ships its journal to followers.
	RolePrimary
)

// String renders the role for wire and log use.
func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "replica"
}

// Config tunes a replication node. Zero values take the defaults below.
type Config struct {
	// Retention bounds the journal tail; a follower further behind than
	// this resyncs from a snapshot. Default 4096 records.
	Retention int
	// PollWait bounds how long the primary holds a stream poll open
	// (server side) and how long a follower asks it to (client side).
	// Default 10s.
	PollWait time.Duration
	// MaxBatch bounds records per stream response. Default 256.
	MaxBatch int
	// RetryMin/RetryMax bound the follower's jittered reconnect backoff.
	// Defaults 100ms / 5s.
	RetryMin time.Duration
	RetryMax time.Duration
	// Client performs the follower's HTTP calls. Default: a client whose
	// timeout exceeds PollWait enough to never cut a healthy long poll.
	Client *http.Client
	// Logger receives replication lifecycle logs. Default log.Default().
	Logger *log.Logger
	// Observer counts structural events (nil → none).
	Observer *metrics.ReplicaCollector
}

func (c Config) withDefaults() Config {
	if c.Retention <= 0 {
		c.Retention = 4096
	}
	if c.PollWait <= 0 {
		c.PollWait = 10 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.RetryMin <= 0 {
		c.RetryMin = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.RetryMax < c.RetryMin {
		c.RetryMax = c.RetryMin
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.PollWait + 30*time.Second}
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// Node is one replication endpoint: a session.Manager plus a journal,
// a role, and a cluster epoch. The same Node type serves both roles —
// promotion is a state change, not a restart.
type Node struct {
	mgr     *session.Manager
	cfg     Config
	obs     *metrics.ReplicaCollector
	logger  *log.Logger
	journal *Journal

	role  atomic.Int32
	epoch atomic.Uint64
	// primaryURL is the upstream base URL ("" on a boot-primary).
	primaryURL atomic.Value

	// applied is the follower's journal cursor; lag is head-applied from
	// the last poll.
	applied atomic.Uint64
	lag     atomic.Uint64

	// quarMu guards quarantined: analyst -> human-readable reason.
	quarMu      sync.Mutex
	quarantined map[string]string // auditlint:guardedby(quarMu)

	// mu serializes role transitions and follower start/stop.
	mu           sync.Mutex
	stopFollower func()        // auditlint:guardedby(mu)
	followerDone chan struct{} // auditlint:guardedby(mu)

	// ackMu guards pending follower acks, drained into each stream poll.
	ackMu sync.Mutex
	acks  map[string]WireMark // auditlint:guardedby(ackMu)
}

// NewNode builds a node in the given role at the given epoch. A replica
// node needs StartFollower to begin streaming from primaryURL.
func NewNode(mgr *session.Manager, role Role, epoch uint64, primaryURL string, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		mgr:         mgr,
		cfg:         cfg,
		obs:         cfg.Observer,
		logger:      cfg.Logger,
		journal:     NewJournal(cfg.Retention),
		quarantined: make(map[string]string),
		acks:        make(map[string]WireMark),
	}
	n.role.Store(int32(role))
	n.epoch.Store(epoch)
	n.primaryURL.Store(primaryURL)
	mgr.SetTap(n)
	n.obs.ObserveRole(role == RolePrimary, epoch)
	return n
}

// Role returns the node's current role.
func (n *Node) Role() Role { return Role(n.role.Load()) }

// Epoch returns the node's current cluster epoch.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// Writable reports whether the node currently accepts writes.
func (n *Node) Writable() bool { return n.Role() == RolePrimary }

// PrimaryURL returns the configured upstream base URL, if any.
func (n *Node) PrimaryURL() string {
	s, _ := n.primaryURL.Load().(string)
	return s
}

// Status summarizes the node for the status endpoint and logs.
func (n *Node) Status() StatusResponse {
	st := StatusResponse{
		Role:       n.Role().String(),
		Epoch:      n.Epoch(),
		Head:       n.journal.Head(),
		Applied:    n.applied.Load(),
		Lag:        n.lag.Load(),
		Sessions:   n.mgr.Tracked(),
		PrimaryURL: n.PrimaryURL(),
	}
	n.quarMu.Lock()
	for a := range n.quarantined {
		st.Quarantined = append(st.Quarantined, a)
	}
	n.quarMu.Unlock()
	sort.Strings(st.Quarantined)
	return st
}

// Quarantined reports whether the analyst's session is quarantined on
// this node (divergence detected; serving it would return answers from a
// transcript the primary never produced).
func (n *Node) Quarantined(analyst string) (string, bool) {
	n.quarMu.Lock()
	defer n.quarMu.Unlock()
	reason, ok := n.quarantined[analyst]
	return reason, ok
}

// Quarantine marks the analyst's session divergent by hand. The
// follower loop calls the same path automatically on digest mismatch;
// the exported form exists for operators who spot trouble out of band
// (e.g. a bad disk on the primary) and want a session fenced before the
// next resync. A snapshot resync lifts it like any other quarantine.
func (n *Node) Quarantine(analyst, reason string) { n.quarantine(analyst, reason) }

// quarantine marks the analyst's session divergent and fires the metric.
func (n *Node) quarantine(analyst, reason string) {
	n.quarMu.Lock()
	_, already := n.quarantined[analyst]
	if !already {
		n.quarantined[analyst] = reason
	}
	count := len(n.quarantined)
	n.quarMu.Unlock()
	if already {
		return
	}
	n.obs.ObserveDivergence()
	n.obs.ObserveQuarantine(count)
	n.logger.Printf("replica: QUARANTINE session %q: %s", analyst, reason)
}

// clearQuarantine lifts all quarantines (after a snapshot resync the
// node's state is a fresh verified copy of the primary's).
func (n *Node) clearQuarantine() {
	n.quarMu.Lock()
	cleared := len(n.quarantined)
	n.quarantined = make(map[string]string)
	n.quarMu.Unlock()
	if cleared > 0 {
		n.logger.Printf("replica: cleared %d quarantined session(s) after resync", cleared)
	}
	n.obs.ObserveQuarantine(0)
}

// TapDecision implements session.Tap: journal one committed decision for
// shipping. Only a primary journals its own traffic — on a follower the
// live write path is fenced, and replicated applies bypass the tap by
// design (the follower mirrors the primary's records instead).
func (n *Node) TapDecision(analyst string, seq uint64, ev core.DecisionEvent, digest core.Digest) {
	if n.Role() != RolePrimary {
		return
	}
	n.journal.Append(Record{
		Kind:       RecordDecision,
		Analyst:    analyst,
		SessionSeq: seq,
		Event:      session.EncodeEvent(session.Event{Decision: ev}),
		Digest:     digest.Hex(),
	})
}

// TapUpdate implements session.Tap: journal one dataset update with the
// per-session marks it appended.
func (n *Node) TapUpdate(index int, value float64, marks []session.Mark) {
	if n.Role() != RolePrimary {
		return
	}
	wire := make([]WireMark, len(marks))
	for i, m := range marks {
		wire[i] = WireMark{Analyst: m.Analyst, Seq: m.Seq, Digest: m.Digest.Hex()}
	}
	n.journal.Append(Record{
		Kind:     RecordUpdate,
		Index:    index,
		Value:    value,
		Sessions: wire,
	})
}

// Promote makes a replica the primary: stops the follower loop, bumps
// the cluster epoch past everything this node has seen, and fences the
// old primary (best effort — the epoch carried by any surviving
// follower's stream request fences it too). Idempotent on a primary.
func (n *Node) Promote() (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.Role() == RolePrimary {
		return n.Epoch(), nil
	}
	n.stopFollowerLocked()
	epoch := n.Epoch() + 1
	n.epoch.Store(epoch)
	n.role.Store(int32(RolePrimary))
	n.lag.Store(0)
	n.obs.ObserveRole(true, epoch)
	n.logger.Printf("replica: PROMOTED to primary at epoch %d (journal head %d)", epoch, n.journal.Head())
	if url := n.PrimaryURL(); url != "" {
		go n.sendDemote(url, epoch)
	}
	return epoch, nil
}

// AdoptEpoch raises the node's epoch to at least e without changing its
// role — the restart path: a node rejoining the cluster resumes the
// fence it last persisted instead of epoch 0, which any promoted peer
// would immediately override. Never lowers the epoch.
func (n *Node) AdoptEpoch(e uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e <= n.Epoch() {
		return
	}
	n.epoch.Store(e)
	n.obs.ObserveRole(n.Role() == RolePrimary, e)
}

// Demote steps a primary down after seeing a higher epoch — the fencing
// arm of promotion. A demoted node stops accepting writes immediately;
// pointing it at the new primary as a follower is an operator action
// (restart with -role=replica), not automatic.
func (n *Node) Demote(epoch uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if epoch <= n.Epoch() {
		return // stale fencing notice; a primary never steps down for it
	}
	n.epoch.Store(epoch)
	if n.Role() == RolePrimary {
		n.role.Store(int32(RoleReplica))
		n.logger.Printf("replica: DEMOTED at epoch %d (a node with a higher epoch is primary)", n.Epoch())
	}
	n.obs.ObserveRole(n.Role() == RolePrimary, n.Epoch())
}

// stopFollowerLocked cancels the follower loop and waits it out; n.mu held.
func (n *Node) stopFollowerLocked() {
	if n.stopFollower == nil {
		return
	}
	n.stopFollower()
	<-n.followerDone
	n.stopFollower = nil
	n.followerDone = nil
}

// pendAck queues the follower's applied position of one session for the
// next stream poll.
func (n *Node) pendAck(analyst string, seq uint64, digest core.Digest) {
	n.ackMu.Lock()
	n.acks[analyst] = WireMark{Analyst: analyst, Seq: seq, Digest: digest.Hex()}
	n.ackMu.Unlock()
}

// drainAcks returns and clears the pending acks.
func (n *Node) drainAcks() []WireMark {
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	if len(n.acks) == 0 {
		return nil
	}
	out := make([]WireMark, 0, len(n.acks))
	for _, m := range n.acks {
		out = append(out, m)
	}
	n.acks = make(map[string]WireMark)
	sort.Slice(out, func(i, j int) bool { return out[i].Analyst < out[j].Analyst })
	return out
}

// checkAck cross-checks a follower-reported position against the local
// session (primary side). Digest comparison is only meaningful when the
// follower acks the exact sequence the primary is at; historical acks
// are skipped (the primary keeps no digest history).
func (n *Node) checkAck(m WireMark) {
	seq, digest, ok := n.mgr.PositionOf(m.Analyst)
	if !ok || m.Seq != seq {
		return
	}
	want, err := core.ParseDigest(m.Digest)
	if err != nil || want == digest {
		return
	}
	n.obs.ObserveDivergence()
	n.logger.Printf("replica: DIVERGENCE acked by follower for session %q at seq %d: follower digest %s, primary %s",
		m.Analyst, m.Seq, m.Digest, digest.Hex())
}
