// Package persist writes the session journals to disk so a statistical
// database can restart without forgetting what it has already answered —
// forgetting would let an attacker replay complementary queries against
// a fresh auditor and stitch the answers together offline.
//
// Every auditor is simulatable (§2.2 of the paper): its state is a
// function of the answered/denied history alone. So the per-analyst
// journals are the complete persisted auditor state, and a restart
// rebuilds any auditor stack from them by replay; a file saved after an
// update also carries the values it wrote. A snapshot is JSON in a
// versioned envelope, decoded in one pass. Loading checks every
// journal's structure and digest chain once, before it changes any
// state (snapshots may come from untrusted storage), so a snapshot that
// fails validation is rejected rather than partially loaded; the
// journals are then replayed on every CPU (session.Manager.Install).
// WriteAtomic makes the write itself crash-safe.
package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"queryaudit/internal/dataset"
	"queryaudit/internal/session"
)

// Version is the envelope schema version.
const Version = 1

// Kind names the payload an envelope carries.
type Kind string

// envelope wraps a payload with identification. Files are written with
// the payload encoded ahead (json.RawMessage) and read in one pass into
// the typed payload.
type envelope[P any] struct {
	Version int  `json:"version"`
	Kind    Kind `json:"kind"`
	Payload P    `json:"payload"`
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
// Dataset holds the sensitive values once an update has changed them: a
// journal's update marker names only the record, not the new value.
type sessionLogsPayload struct {
	Sessions []session.LogSnapshot   `json:"sessions"`
	Epoch    uint64                  `json:"epoch,omitempty"`
	Dataset  *dataset.SensitiveState `json:"dataset,omitempty"`
}

// SaveSessionState writes every session journal plus the replication
// cluster epoch, so a restarted node rejoins the cluster with the fence
// it last held instead of epoch 0 (which any promoted peer would
// immediately override).
func SaveSessionState(w io.Writer, logs []session.LogSnapshot, epoch uint64) error {
	return save(w, sessionLogsPayload{Sessions: logs, Epoch: epoch})
}

// save writes p in the versioned envelope.
func save(w io.Writer, p sessionLogsPayload) error {
	raw, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("persist: encode session logs: %w", err)
	}
	return json.NewEncoder(w).Encode(envelope[json.RawMessage]{Version: Version, Kind: KindSessionLogs, Payload: raw})
}

// SaveFile writes mgr's session journals, tagged with the epoch, to path
// with WriteAtomic and returns how many it wrote. Once an update has
// changed the dataset, its values go with them, taken in the same cut.
func SaveFile(path string, mgr *session.Manager, epoch uint64) (int, error) {
	logs, st := mgr.ReplicaSnapshot()
	p := sessionLogsPayload{Sessions: logs, Epoch: epoch}
	if st.Mods > 0 {
		p.Dataset = &st
	}
	return len(logs), WriteAtomic(path, func(w io.Writer) error { return save(w, p) })
}

// LoadFile restores a SaveFile file into mgr and returns the journal
// count and the epoch. A missing file is a fresh start. Every journal is
// decoded and checked before anything changes, so a file that fails
// validation leaves the dataset and mgr untouched; then the dataset
// values are restored, then every journal is replayed. Journals that
// record updates without dataset values are refused: the regenerated
// table would undo them.
func LoadFile(path string, mgr *session.Manager) (int, uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	p, journals, err := loadJournals(f)
	if err != nil {
		return 0, 0, err
	}
	if p.Dataset != nil {
		if err := mgr.RestoreSensitiveState(*p.Dataset); err != nil {
			return 0, 0, fmt.Errorf("persist: %w", err)
		}
	} else if hasUpdate(p.Sessions) {
		return 0, 0, errors.New("persist: the journals record updates but the file holds no dataset values")
	}
	if err := mgr.Install(journals); err != nil {
		return 0, 0, err
	}
	return len(p.Sessions), p.Epoch, nil
}

// hasUpdate reports whether any journal holds an update marker.
func hasUpdate(logs []session.LogSnapshot) bool {
	for _, l := range logs {
		for _, ev := range l.Events {
			if ev.Op == "update" {
				return true
			}
		}
	}
	return false
}

// LoadSessions reads a session-journal snapshot from r (discarding any
// stored epoch or dataset values). Each journal's structural invariants —
// including its transcript digest chain, when the snapshot carries
// digests — are validated before returning; replay-time checks (index
// ranges, auditor agreement with logged outcomes) happen in
// session.Manager.Restore.
func LoadSessions(r io.Reader) ([]session.LogSnapshot, error) {
	p, _, err := loadJournals(r)
	return p.Sessions, err
}

// LoadJournals is LoadSessions for a reader of the journals: it returns
// each journal as session.BuildJournals rebuilt and checked it.
func LoadJournals(r io.Reader) ([]session.Journal, error) {
	_, js, err := loadJournals(r)
	return js, err
}

// loadJournals decodes a session-journal snapshot and rebuilds and
// checks every journal it holds.
func loadJournals(r io.Reader) (sessionLogsPayload, []session.Journal, error) {
	p, err := load(r)
	if err != nil {
		return sessionLogsPayload{}, nil, err
	}
	js, err := session.BuildJournals(p.Sessions)
	if err != nil {
		return sessionLogsPayload{}, nil, fmt.Errorf("persist: %w", err)
	}
	return p, js, nil
}

// load decodes a session-journal snapshot, envelope and payload in one
// pass, and checks its version and kind.
func load(r io.Reader) (sessionLogsPayload, error) {
	var env envelope[sessionLogsPayload]
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return sessionLogsPayload{}, fmt.Errorf("persist: decode snapshot: %w", err)
	}
	if env.Version != Version {
		return sessionLogsPayload{}, fmt.Errorf("persist: unsupported snapshot version %d", env.Version)
	}
	if env.Kind != KindSessionLogs {
		return sessionLogsPayload{}, fmt.Errorf("persist: snapshot kind %q, want %q", env.Kind, KindSessionLogs)
	}
	return env.Payload, nil
}
