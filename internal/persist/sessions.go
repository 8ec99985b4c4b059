// Package persist writes the session journals to disk so a statistical
// database can restart without forgetting what it has already answered —
// forgetting would let an attacker replay complementary queries against
// a fresh auditor and stitch the answers together offline.
//
// Every auditor is simulatable (§2.2 of the paper): its state is a
// function of the answered/denied history alone. So the per-analyst
// journals are the complete persisted state, and session.Manager.Restore
// rebuilds any auditor stack from them by replay. A snapshot is JSON in
// a versioned envelope; loading re-validates each journal's structure
// and digest chain (snapshots may come from untrusted storage), and a
// snapshot that fails validation is rejected rather than partially
// loaded. WriteAtomic makes the write itself crash-safe.
package persist

import (
	"encoding/json"
	"fmt"
	"io"

	"queryaudit/internal/session"
)

// Version is the envelope schema version.
const Version = 1

// Kind names the payload an envelope carries.
type Kind string

// envelope wraps a payload with identification.
type envelope struct {
	Version int             `json:"version"`
	Kind    Kind            `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// KindSessionLogs names the multi-analyst session-journal snapshot: the
// complete set of per-analyst query/decision logs, from which every
// session's auditor state is rebuilt by replay (simulatable stacks
// only).
const KindSessionLogs Kind = "session-logs"

// sessionLogsPayload is the envelope payload for KindSessionLogs. Epoch
// is the replication cluster epoch at save time (0 for standalone
// deployments and snapshots from before replication existed — the JSON
// field is simply absent there, so old snapshots load unchanged).
type sessionLogsPayload struct {
	Sessions []session.LogSnapshot `json:"sessions"`
	Epoch    uint64                `json:"epoch,omitempty"`
}

// SaveSessionState writes every session journal plus the replication
// cluster epoch, so a restarted node rejoins the cluster with the fence
// it last held instead of epoch 0 (which any promoted peer would
// immediately override).
func SaveSessionState(w io.Writer, logs []session.LogSnapshot, epoch uint64) error {
	raw, err := json.Marshal(sessionLogsPayload{Sessions: logs, Epoch: epoch})
	if err != nil {
		return fmt.Errorf("persist: encode session logs: %w", err)
	}
	return json.NewEncoder(w).Encode(envelope{Version: Version, Kind: KindSessionLogs, Payload: raw})
}

// LoadSessions reads a session-journal snapshot from r (discarding any
// stored epoch), validating each journal's structural invariants before
// returning.
func LoadSessions(r io.Reader) ([]session.LogSnapshot, error) {
	logs, _, err := LoadSessionState(r)
	return logs, err
}

// LoadSessionState reads a session-journal snapshot plus the stored
// replication epoch. Each journal's structural invariants — including
// its transcript digest chain, when the snapshot carries digests — are
// validated before returning; replay-time checks (index ranges, auditor
// agreement with logged outcomes) happen in session.Manager.Restore.
func LoadSessionState(r io.Reader) ([]session.LogSnapshot, uint64, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, 0, fmt.Errorf("persist: decode envelope: %w", err)
	}
	if err := env.check(KindSessionLogs); err != nil {
		return nil, 0, err
	}
	var p sessionLogsPayload
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		return nil, 0, fmt.Errorf("persist: decode %s: %w", env.Kind, err)
	}
	seen := make(map[string]bool, len(p.Sessions))
	for _, snap := range p.Sessions {
		if snap.Analyst == "" {
			return nil, 0, fmt.Errorf("persist: session snapshot with empty analyst id")
		}
		if seen[snap.Analyst] {
			return nil, 0, fmt.Errorf("persist: duplicate session snapshot for analyst %q", snap.Analyst)
		}
		seen[snap.Analyst] = true
		if err := snap.Validate(); err != nil {
			return nil, 0, fmt.Errorf("persist: analyst %q: %w", snap.Analyst, err)
		}
	}
	return p.Sessions, p.Epoch, nil
}

// check validates an envelope's version and kind.
func (env envelope) check(want Kind) error {
	if env.Version != Version {
		return fmt.Errorf("persist: unsupported snapshot version %d", env.Version)
	}
	if env.Kind != want {
		return fmt.Errorf("persist: snapshot kind %q, want %q", env.Kind, want)
	}
	return nil
}
