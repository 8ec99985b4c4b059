package session

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// recordingTap captures the replication feed in commit order.
type recordingTap struct {
	mu        sync.Mutex
	decisions []struct {
		analyst string
		seq     uint64
		ev      core.DecisionEvent
		digest  core.Digest
	}
	updates []struct {
		index int
		value float64
		marks []Mark
	}
}

func (t *recordingTap) TapDecision(analyst string, seq uint64, ev core.DecisionEvent, digest core.Digest) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.decisions = append(t.decisions, struct {
		analyst string
		seq     uint64
		ev      core.DecisionEvent
		digest  core.Digest
	}{analyst, seq, ev, digest})
}

func (t *recordingTap) TapUpdate(index int, value float64, marks []Mark) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cp := append([]Mark(nil), marks...)
	t.updates = append(t.updates, struct {
		index int
		value float64
		marks []Mark
	}{index, value, cp})
}

// TestTapFeedMirrorsIntoFollower drives a primary manager with the tap
// installed and applies the captured feed to a second manager via
// ApplyDecision/ApplyUpdate — the in-process core of the replication
// path — asserting the follower lands on the identical (seq, digest)
// position for every session.
func TestTapFeedMirrorsIntoFollower(t *testing.T) {
	for _, f := range determinismFamilies() {
		t.Run(f.name, func(t *testing.T) {
			primary := f.newManager(t)
			tap := &recordingTap{}
			primary.SetTap(tap)
			follower := f.newManager(t)

			steps := script(46, f.n, f.rounds, f.kinds, f.withUpdates)
			for i, st := range steps {
				if st.update {
					if err := primary.Update(st.idx, st.val); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					continue
				}
				analyst := []string{"alice", "bob"}[i%2]
				if _, err := primary.Ask(analyst, st.q); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}

			// Interleave the two feeds exactly as committed: decisions and
			// updates each carry enough ordering (per-session seqs / marks)
			// to replay in commit order. Replay decisions first per session
			// ordering; updates are totally ordered against each session's
			// decisions by their marks, so apply everything sorted by each
			// session's next-expected seq, simplest as: walk decisions and
			// updates in captured order, merged by trying whichever applies.
			di, ui := 0, 0
			for di < len(tap.decisions) || ui < len(tap.updates) {
				if di < len(tap.decisions) {
					d := tap.decisions[di]
					cur, _ := follower.SeqOf(d.analyst)
					if d.seq == cur+1 {
						dig, err := follower.ApplyDecision(d.analyst, d.seq, d.ev)
						if err != nil {
							t.Fatalf("apply decision %d: %v", di, err)
						}
						if dig != d.digest {
							t.Fatalf("decision %d: digest %s, primary tapped %s", di, dig, d.digest)
						}
						di++
						continue
					}
				}
				if ui >= len(tap.updates) {
					t.Fatalf("feed stuck: decision %d/%d not applicable, no updates left", di, len(tap.decisions))
				}
				u := tap.updates[ui]
				outs, err := follower.ApplyUpdate(u.index, u.value, u.marks)
				if err != nil {
					t.Fatalf("apply update %d: %v", ui, err)
				}
				want := map[string]Mark{}
				for _, mk := range u.marks {
					want[mk.Analyst] = mk
				}
				for _, o := range outs {
					if o.Err != nil {
						t.Fatalf("update %d, session %s: %v", ui, o.Analyst, o.Err)
					}
					if mk := want[o.Analyst]; o.Seq != mk.Seq || o.Digest != mk.Digest {
						t.Fatalf("update %d, session %s: %d/%s vs primary mark %d/%s",
							ui, o.Analyst, o.Seq, o.Digest, mk.Seq, mk.Digest)
					}
				}
				ui++
			}

			for _, analyst := range []string{"alice", "bob"} {
				pseq, pdig, _ := primary.PositionOf(analyst)
				fseq, fdig, ok := follower.PositionOf(analyst)
				if !ok || fseq != pseq || fdig != pdig {
					t.Fatalf("%s: follower at %d/%s, primary at %d/%s", analyst, fseq, fdig, pseq, pdig)
				}
			}
			pv, fv := primary.Dataset().Values(), follower.Dataset().Values()
			for i := range pv {
				if pv[i] != fv[i] {
					t.Fatalf("dataset[%d]: %v vs %v", i, fv[i], pv[i])
				}
			}
		})
	}
}

// TestApplyDecisionOrdering: stale and gapped sequence numbers are
// rejected with their sentinel errors, and the journal is untouched.
func TestApplyDecisionOrdering(t *testing.T) {
	f := determinismFamilies()[0]
	primary := f.newManager(t)
	tap := &recordingTap{}
	primary.SetTap(tap)
	follower := f.newManager(t)

	for _, q := range []query.Query{
		query.New(query.Sum, 0, 1, 2),
		query.New(query.Max, 3, 4, 5),
		query.New(query.Sum, 6, 7),
	} {
		if _, err := primary.Ask("alice", q); err != nil {
			t.Fatal(err)
		}
	}
	d0, d1 := tap.decisions[0], tap.decisions[1]

	// A gap (seq 2 before seq 1) must be refused.
	if _, err := follower.ApplyDecision("alice", d1.seq, d1.ev); !errors.Is(err, ErrApplyGap) {
		t.Fatalf("gapped apply: %v, want ErrApplyGap", err)
	}
	if _, err := follower.ApplyDecision("alice", d0.seq, d0.ev); err != nil {
		t.Fatal(err)
	}
	// Re-delivery of seq 1 is stale, not fatal.
	if _, err := follower.ApplyDecision("alice", d0.seq, d0.ev); !errors.Is(err, ErrApplyStale) {
		t.Fatalf("stale apply: %v, want ErrApplyStale", err)
	}
	if seq, ok := follower.SeqOf("alice"); !ok || seq != 1 {
		t.Fatalf("journal at %d after rejections, want 1", seq)
	}

	// An update already applied to every session is stale as a whole.
	if err := primary.Update(2, 50); err != nil {
		t.Fatal(err)
	}
	u := tap.updates[0]
	aliceOnly := []Mark{}
	for _, mk := range u.marks {
		if mk.Analyst == "alice" {
			// Pretend alice already holds the marker.
			aliceOnly = append(aliceOnly, Mark{Analyst: "alice", Seq: 1, Digest: mk.Digest})
		}
	}
	if _, err := follower.ApplyUpdate(u.index, u.value, aliceOnly); !errors.Is(err, ErrApplyStale) {
		t.Fatalf("fully-stale update: %v, want ErrApplyStale", err)
	}
	if _, err := follower.ApplyUpdate(-1, 1, nil); err == nil {
		t.Fatal("out-of-range update index accepted")
	}
}

// TestDropSession: Drop removes a session so its timeline can restart,
// the default one included, and reports unknown analysts.
func TestDropSession(t *testing.T) {
	f := determinismFamilies()[0]
	m := f.newManager(t)
	if _, err := m.Ask("alice", query.New(query.Sum, 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if !m.Drop("alice") {
		t.Fatal("drop of live session failed")
	}
	if _, ok := m.SeqOf("alice"); ok {
		t.Fatal("dropped session still tracked")
	}
	if m.Drop("alice") {
		t.Fatal("second drop reported success")
	}
	if m.Drop("nobody") {
		t.Fatal("drop of unknown analyst reported success")
	}
	// The default session is droppable like any other (the primary may
	// legitimately restart its timeline).
	if !m.Drop(DefaultAnalyst) {
		t.Fatal("default session refused Drop")
	}
}

// TestReplicaSnapshotConsistentCut: the snapshot pairs journals and
// dataset state from one cut, and RestoreSensitiveState carries the
// values into a fresh manager.
func TestReplicaSnapshotConsistentCut(t *testing.T) {
	f := determinismFamilies()[0]
	m := f.newManager(t)
	play(t, m, "alice", script(47, f.n, f.rounds, f.kinds, true), false)

	logs, sens := m.ReplicaSnapshot()
	if len(logs) == 0 {
		t.Fatal("snapshot has no sessions")
	}
	var alice *LogSnapshot
	for i := range logs {
		if logs[i].Analyst == "alice" {
			alice = &logs[i]
		}
		if _, err := BuildJournals([]LogSnapshot{logs[i]}); err != nil {
			t.Fatalf("snapshot journal %s invalid: %v", logs[i].Analyst, err)
		}
	}
	seq, dig, _ := m.PositionOf("alice")
	if alice == nil || alice.Seq != seq || alice.Digest != dig.Hex() {
		t.Fatalf("snapshot position %+v, live position %d/%s", alice, seq, dig)
	}

	m2 := f.newManager(t)
	if err := m2.RestoreSensitiveState(sens); err != nil {
		t.Fatal(err)
	}
	a, b := m.Dataset().Values(), m2.Dataset().Values()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored dataset[%d] = %v, want %v", i, b[i], a[i])
		}
	}
	if err := m2.Restore(logs); err != nil {
		t.Fatalf("restore journals over restored values: %v", err)
	}
	if fseq, fdig, ok := m2.PositionOf("alice"); !ok || fseq != seq || fdig != dig {
		t.Fatalf("restored position %d/%s, want %d/%s", fseq, fdig, seq, dig)
	}

	// A wrong-shape state must be refused.
	bad := dataset.UniformDuplicateFree(randx.New(3), f.n+1, 0, 1).SensitiveState()
	if err := m2.RestoreSensitiveState(bad); err == nil {
		t.Fatal("mismatched sensitive state accepted")
	}
}

// TestEventWireCodec: EncodeEvent/DecodeEvent round-trip both event
// shapes and reject junk.
func TestEventWireCodec(t *testing.T) {
	dec := Event{Decision: core.DecisionEvent{
		Query:   query.New(query.Max, 4, 2, 9),
		Outcome: core.OutcomeDenied,
	}}
	upd := Event{Update: true, Index: 7}
	for _, ev := range []Event{dec, upd} {
		snap := EncodeEvent(ev)
		back, err := DecodeEvent(snap)
		if err != nil {
			t.Fatalf("decode %+v: %v", snap, err)
		}
		if back.Update != ev.Update || back.Index != ev.Index {
			t.Fatalf("round trip %+v -> %+v", ev, back)
		}
		if !ev.Update {
			if back.Decision.Outcome != ev.Decision.Outcome ||
				back.Decision.Query.Kind != ev.Decision.Query.Kind {
				t.Fatalf("decision round trip %+v -> %+v", ev, back)
			}
		}
		if ev.chain(core.Digest{}) != back.chain(core.Digest{}) {
			t.Fatal("round trip changes the digest chain")
		}
	}
	if _, err := DecodeEvent(EventSnapshot{Op: "query", Kind: "nonsense"}); err == nil {
		t.Fatal("bad kind decoded")
	}
	if _, err := DecodeEvent(EventSnapshot{Op: "waffle"}); err == nil {
		t.Fatal("bad op decoded")
	}
}

// TestSnapshotValidate: BuildJournals refuses a corrupted journal
// digest with an error naming the digest, and a seq that disagrees with
// the event count.
func TestSnapshotValidate(t *testing.T) {
	f := determinismFamilies()[0]
	m := f.newManager(t)
	play(t, m, "alice", script(48, f.n, 6, f.kinds, false), false)
	logs := m.LogSnapshots()
	var snap LogSnapshot
	for _, l := range logs {
		if l.Analyst == "alice" {
			snap = l
		}
	}
	if _, err := BuildJournals([]LogSnapshot{snap}); err != nil {
		t.Fatalf("clean snapshot invalid: %v", err)
	}
	// Tamper with one answer; the stored digest no longer matches.
	tampered := snap
	tampered.Events = append([]EventSnapshot(nil), snap.Events...)
	tampered.Events[0].Answer += 1
	if _, err := BuildJournals([]LogSnapshot{tampered}); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered snapshot validated: %v", err)
	}
	// Seq disagreeing with the event count is also structural corruption.
	short := snap
	short.Seq = snap.Seq + 5
	if _, err := BuildJournals([]LogSnapshot{short}); err == nil {
		t.Fatal("wrong-seq snapshot validated")
	}
}
