package replica

import (
	"queryaudit/internal/dataset"
	"queryaudit/internal/session"
)

// Wire types for the replication protocol. Everything is JSON over the
// deployment's ordinary HTTP surface (see handlers.go); the protocol is
// deliberately dumb — a single totally-ordered journal, shipped in
// batches by long-poll — because the hard part (rebuilding auditor state
// bit-identically) is already solved by the simulatability replay in
// internal/core, and the digest chain makes any transport or replay
// defect detectable instead of trusted-away.

// Record kinds.
const (
	// RecordDecision carries one committed protocol decision of one
	// session, exactly as journaled by the primary.
	RecordDecision = "decision"
	// RecordUpdate carries one global dataset update: the mutation itself
	// plus the journal marks it appended to every session that existed on
	// the primary at that instant.
	RecordUpdate = "update"
)

// WireMark is a session journal position on the wire: analyst, sequence
// number, and hex transcript digest after the event at that sequence.
type WireMark struct {
	Analyst string `json:"analyst"`
	Seq     uint64 `json:"seq"`
	Digest  string `json:"digest"`
}

// Record is one entry of the global replication journal.
type Record struct {
	// Seq is the global journal sequence number (1-based, dense).
	Seq uint64 `json:"seq"`
	// Kind is RecordDecision or RecordUpdate.
	Kind string `json:"kind"`

	// Decision fields (Kind == RecordDecision).
	Analyst string `json:"analyst,omitempty"`
	// SessionSeq is the per-session sequence number of the event.
	SessionSeq uint64 `json:"session_seq,omitempty"`
	// Event is the decision in its serializable journal form.
	Event session.EventSnapshot `json:"event,omitempty"`
	// Digest is the primary's transcript digest after this event; the
	// follower recomputes its own and quarantines the session on
	// mismatch.
	Digest string `json:"digest,omitempty"`

	// Update fields (Kind == RecordUpdate).
	Index int     `json:"index,omitempty"`
	Value float64 `json:"value,omitempty"`
	// Sessions are the per-session marker positions the update appended.
	Sessions []WireMark `json:"sessions,omitempty"`
}

// StreamRequest is the body of POST /v1/replication/stream: a long-poll
// for journal records after a cursor. Acks report the follower's applied
// positions since its previous poll so the primary can cross-check
// digests (divergence is detected on BOTH ends) and export lag.
type StreamRequest struct {
	// After is the highest global sequence the follower has applied.
	After uint64 `json:"after"`
	// Epoch is the follower's cluster epoch; a request carrying a higher
	// epoch than the serving node fences it (the old primary demotes).
	Epoch uint64 `json:"epoch"`
	// WaitMS bounds how long the primary may hold the poll open waiting
	// for records (capped by the primary's own configured maximum).
	WaitMS int64 `json:"wait_ms,omitempty"`
	// Max bounds the batch size (capped by the primary).
	Max int `json:"max,omitempty"`
	// Acks are per-session positions the follower applied since the last
	// poll.
	Acks []WireMark `json:"acks,omitempty"`
}

// StreamResponse is the body of a successful stream poll. An empty
// Records slice after the wait window is the heartbeat: the connection
// and the primary are alive, there is just nothing to ship.
type StreamResponse struct {
	Epoch   uint64   `json:"epoch"`
	Records []Record `json:"records"`
	// Head is the primary's current journal head, for lag accounting.
	Head uint64 `json:"head"`
}

// SnapshotResponse is the body of GET /v1/replication/snapshot: a
// consistent seed for follower catch-up. The follower restores the
// session journals (rebuilding auditor state by replay), overwrites its
// dataset's mutable half, and then streams from Cursor; records at or
// below Cursor that reappear in the stream are skipped as re-delivery.
type SnapshotResponse struct {
	Epoch  uint64 `json:"epoch"`
	Cursor uint64 `json:"cursor"`
	// Sessions are every tracked session's journal, digests included.
	Sessions []session.LogSnapshot `json:"sessions"`
	// Sensitive is the dataset's mutable half as of the same cut.
	Sensitive dataset.SensitiveState `json:"sensitive"`
}

// PromoteResponse is the body of POST /v1/replication/promote.
type PromoteResponse struct {
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
}

// DemoteRequest is the body of POST /v1/replication/demote: a fencing
// notice that a node with the given (higher) epoch is now primary.
type DemoteRequest struct {
	Epoch uint64 `json:"epoch"`
}

// StatusResponse is the body of GET /v1/replication/status.
type StatusResponse struct {
	Role    string `json:"role"`
	Epoch   uint64 `json:"epoch"`
	Head    uint64 `json:"head"`
	Applied uint64 `json:"applied"`
	Lag     uint64 `json:"lag"`
	// Sessions is the node's tracked-session count.
	Sessions    int      `json:"sessions"`
	PrimaryURL  string   `json:"primary_url,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
}

// errorBody mirrors the server package's error envelope, with the
// role-aware fields a misdirected client needs to find the primary.
type errorBody struct {
	Error      string `json:"error"`
	Role       string `json:"role,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`
	PrimaryURL string `json:"primary_url,omitempty"`
}
