package session

import (
	"errors"
	"fmt"

	"queryaudit/internal/core"
)

// Journal export/import/drop: the session-manager half of cross-shard
// migration (internal/cluster). A migration is replay — the same
// mechanism that rebuilds an evicted session rebuilds it on a different
// node — so the only new machinery here is the handoff discipline:
// import verifies the replayed position against the exported one, and
// the drop is conditional on the journal not having moved since export.

// ErrImportConflict reports an import refused because the analyst
// already has a session here whose timeline is NOT a prefix of the
// imported journal — two divergent histories for one analyst, which no
// automatic resolution may collapse.
var ErrImportConflict = errors.New("session: import conflicts with an existing session timeline")

// ErrPositionMoved reports a conditional drop refused because the
// session's journal advanced past the expected position.
var ErrPositionMoved = errors.New("session: journal position moved")

// Export returns a snapshot of the analyst's journal (digest chain
// included) without creating, materializing or touching the session.
// The snapshot is internally consistent — Log.Snapshot holds the log
// lock — so a concurrent decision lands either wholly before or wholly
// after the cut, and a conditional drop at the snapshot's position
// detects either way.
func (m *Manager) Export(analyst string) (LogSnapshot, bool) {
	s := m.peek(analyst)
	if s == nil {
		return LogSnapshot{}, false
	}
	return s.log.Snapshot(analyst), true
}

// Import admits a migrated session journal: validate the digest chain,
// replay it into a fresh engine, and return the resulting position for
// the caller to verify against the exporter's. Idempotent and
// prefix-tolerant: if the analyst already has a session whose current
// (seq, digest) matches the imported journal's chain at that seq, the
// existing copy is a stale prefix from an earlier migration round and
// is replaced (or, at equal seq, kept as-is). Any other existing
// timeline fails with ErrImportConflict — the caller must not retry.
func (m *Manager) Import(snap LogSnapshot) (uint64, core.Digest, error) {
	if snap.Analyst == "" {
		return 0, core.Digest{}, errors.New("session: import with empty analyst id")
	}
	lg, err := logFromSnapshot(snap)
	if err != nil {
		return 0, core.Digest{}, fmt.Errorf("session: importing %q: %w", snap.Analyst, err)
	}
	newSeq, newDigest := lg.Position()

	m.dsMu.RLock()
	defer m.dsMu.RUnlock()
	s, err := m.lookupOrCreate(snap.Analyst)
	if err != nil {
		return 0, core.Digest{}, err
	}
	defer s.mu.Unlock()
	curSeq, curDigest := s.log.Position()
	if curSeq > 0 {
		if curSeq > newSeq {
			return 0, core.Digest{}, fmt.Errorf(
				"%w: %q is at seq %d here, imported journal ends at %d",
				ErrImportConflict, snap.Analyst, curSeq, newSeq)
		}
		if prefixDigest(snap, curSeq) != curDigest {
			return 0, core.Digest{}, fmt.Errorf(
				"%w: %q digest at seq %d differs from the imported journal's chain",
				ErrImportConflict, snap.Analyst, curSeq)
		}
		if curSeq == newSeq {
			return curSeq, curDigest, nil // exact re-delivery
		}
	}

	// Swap in the imported journal and rebuild the engine by replay. On
	// replay failure restore the previous journal: a half-imported
	// session must not shadow the (still authoritative) source copy.
	oldLog := s.log
	wasLive := s.eng != nil
	if wasLive {
		m.dropEngineLocked(s)
	}
	m.wireLog(snap.Analyst, lg)
	s.log = lg
	if err := m.materializeLocked(s); err != nil {
		s.log = oldLog
		return 0, core.Digest{}, fmt.Errorf("session: importing %q: %w", snap.Analyst, err)
	}
	return newSeq, newDigest, nil
}

// prefixDigest recomputes the snapshot's digest chain through its first
// seq events (snap is already validated; decode errors cannot occur).
func prefixDigest(snap LogSnapshot, seq uint64) core.Digest {
	var d core.Digest
	for i := uint64(0); i < seq && i < uint64(len(snap.Events)); i++ {
		ev, err := DecodeEvent(snap.Events[i])
		if err != nil {
			return core.Digest{}
		}
		d = ev.chain(d)
	}
	return d
}

// DropIfAt removes the analyst's session — engine and journal — if and
// only if its journal is still exactly at (seq, digest): the atomic cut
// of a migration handoff. An absent session reports success (the drop
// is idempotent); a session at any other position fails with
// ErrPositionMoved and the caller re-exports.
func (m *Manager) DropIfAt(analyst string, seq uint64, digest core.Digest) error {
	sh, idx := m.shardOf(analyst)
	m.lockShard(sh, idx)
	s := sh.sessions[analyst]
	sh.mu.Unlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return nil
	}
	curSeq, curDigest := s.log.Position()
	if curSeq != seq || curDigest != digest {
		return fmt.Errorf("%w: %q expected (seq %d, digest %s), now (seq %d, digest %s)",
			ErrPositionMoved, analyst, seq, digest.Hex(), curSeq, curDigest.Hex())
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
	return nil
}
