package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// This file defines the transcript digest: a hash chain over a session's
// committed journal events. Because a simulatable auditor's state is a
// pure function of its decision history (Section 2.2), the digest after
// event k commits the ENTIRE auditor state at that point — two timelines
// with equal digests have bit-identical auditors. Replication uses it as
// the cheap divergence check: a follower that replays a shipped event and
// lands on a different digest than the primary is provably serving a
// different transcript and must quarantine the session rather than keep
// answering from it.

// Digest is one link of the transcript hash chain (SHA-256). The zero
// Digest is the chain origin of an empty journal.
type Digest [sha256.Size]byte

// IsZero reports whether d is the empty-journal origin.
func (d Digest) IsZero() bool { return d == Digest{} }

// Hex renders the digest as lower-case hex.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// String implements fmt.Stringer (short prefix for logs).
func (d Digest) String() string { return d.Hex()[:12] }

// ParseDigest inverts Hex. The empty string parses to the zero digest,
// so wire formats can omit the field for empty journals.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	if s == "" {
		return d, nil
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return d, fmt.Errorf("core: malformed digest %q: %w", s, err)
	}
	if len(b) != len(d) {
		return d, fmt.Errorf("core: digest %q has %d bytes, want %d", s, len(b), len(d))
	}
	copy(d[:], b)
	return d, nil
}

// Domain-separation tags for the two journal event arms. A decision and
// an update can never collide even if their field encodings overlap.
const (
	chainTagDecision = 0x01
	chainTagUpdate   = 0x02
)

// ChainDecision extends the chain with one committed protocol decision.
// The encoding is canonical: fixed-width big-endian fields, the query set
// length-prefixed, the answer hashed as its IEEE-754 bit pattern so the
// digest distinguishes values JSON round-trips conflate (-0 vs 0).
func ChainDecision(prev Digest, ev DecisionEvent) Digest {
	h := sha256.New()
	h.Write(prev[:])
	var buf [8]byte
	h.Write([]byte{chainTagDecision, byte(ev.Outcome)})
	binary.BigEndian.PutUint64(buf[:], uint64(ev.Query.Kind))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(len(ev.Query.Set)))
	h.Write(buf[:])
	for _, i := range ev.Query.Set {
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		h.Write(buf[:])
	}
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(ev.Answer))
	h.Write(buf[:])
	var out Digest
	h.Sum(out[:0])
	return out
}

// ChainUpdate extends the chain with a dataset-update marker at this
// point of the session's timeline.
func ChainUpdate(prev Digest, index int) Digest {
	h := sha256.New()
	h.Write(prev[:])
	var buf [8]byte
	h.Write([]byte{chainTagUpdate})
	binary.BigEndian.PutUint64(buf[:], uint64(index))
	h.Write(buf[:])
	var out Digest
	h.Sum(out[:0])
	return out
}
