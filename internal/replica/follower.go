package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"queryaudit/internal/core"
	"queryaudit/internal/session"
)

// Sentinel conditions of the stream protocol.
var (
	// errTrimmed: the primary trimmed past our cursor; resync required.
	errTrimmed = errors.New("replica: cursor behind primary's retained journal")
	// errFenced: the upstream node answered with a role/epoch conflict.
	errFenced = errors.New("replica: upstream refused the stream (role or epoch conflict)")
)

// StartFollower launches the replication loop streaming from the node's
// configured primary URL. It returns immediately; the loop runs until
// ctx is cancelled or the node is promoted. Calling it on a primary or
// twice without stopping is an error.
func (n *Node) StartFollower(ctx context.Context) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.Role() != RoleReplica {
		return fmt.Errorf("replica: StartFollower on a %s node", n.Role())
	}
	if n.stopFollower != nil {
		return errors.New("replica: follower already running")
	}
	if n.PrimaryURL() == "" {
		return errors.New("replica: follower needs a primary URL")
	}
	fctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	n.stopFollower = cancel
	n.followerDone = done
	go func() {
		defer close(done)
		n.runFollower(fctx)
	}()
	return nil
}

// StopFollower stops the replication loop if it is running.
func (n *Node) StopFollower() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopFollowerLocked()
}

// runFollower is the replication loop: snapshot resync, then long-poll
// the stream, applying and verifying each record. Any transport or
// protocol error backs off with jitter and reconnects; a trimmed cursor
// forces a fresh resync.
func (n *Node) runFollower(ctx context.Context) {
	backoff := n.cfg.RetryMin
	needResync := true // a follower ALWAYS starts from a snapshot
	for ctx.Err() == nil && n.Role() == RoleReplica {
		if needResync {
			if err := n.resync(ctx); err != nil {
				if ctx.Err() != nil {
					return
				}
				n.logger.Printf("replica: resync failed: %v (retrying in %s)", err, backoff)
				n.obs.ObserveReconnect()
				backoff = n.sleep(ctx, backoff)
				continue
			}
			needResync = false
			backoff = n.cfg.RetryMin
		}
		resp, err := n.poll(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if errors.Is(err, errTrimmed) {
				n.logger.Printf("replica: stream cursor trimmed upstream; resyncing from snapshot")
				needResync = true
				continue
			}
			n.logger.Printf("replica: stream poll failed: %v (retrying in %s)", err, backoff)
			n.obs.ObserveReconnect()
			backoff = n.sleep(ctx, backoff)
			continue
		}
		backoff = n.cfg.RetryMin
		if resp.Epoch > n.Epoch() {
			// A promotion happened upstream of our upstream; adopt it.
			n.epoch.Store(resp.Epoch)
			n.obs.ObserveRole(n.Role() == RolePrimary, resp.Epoch)
		}
		start := time.Now()
		for _, rec := range resp.Records {
			n.applyRecord(rec)
		}
		if len(resp.Records) > 0 {
			n.obs.ObserveApplied(len(resp.Records), time.Since(start))
		}
		applied := n.applied.Load()
		var lag uint64
		if resp.Head > applied {
			lag = resp.Head - applied
		}
		n.lag.Store(lag)
		n.obs.ObserveLag(lag)
	}
}

// sleep waits the backoff duration with ±25% jitter (decorrelating the
// retry storms of many followers) and returns the doubled, capped next
// backoff.
func (n *Node) sleep(ctx context.Context, backoff time.Duration) time.Duration {
	jittered := backoff/2 + backoff/4 + time.Duration(rand.Int63n(int64(backoff/2)+1))
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	next := backoff * 2
	if next > n.cfg.RetryMax {
		next = n.cfg.RetryMax
	}
	return next
}

// resync seeds the follower from a primary snapshot: check every session
// journal, then restore the dataset state and the journals (rebuilding
// auditor state by replay), drop sessions the primary no longer tracks,
// and point the journal cursor at the snapshot's cut. A snapshot with a
// bad journal changes nothing. All quarantines lift — the node's state
// is a fresh verified copy.
func (n *Node) resync(ctx context.Context) error {
	var snap SnapshotResponse
	if err := n.call(ctx, http.MethodGet, n.PrimaryURL(), "/v1/replication/snapshot", nil, &snap); err != nil {
		return err
	}
	if snap.Epoch < n.Epoch() {
		return fmt.Errorf("%w: snapshot from epoch %d, ours is %d", errFenced, snap.Epoch, n.Epoch())
	}
	journals, err := session.BuildJournals(snap.Sessions)
	if err != nil {
		return fmt.Errorf("replica: snapshot sessions: %w", err)
	}
	if err := n.mgr.RestoreSensitiveState(snap.Sensitive); err != nil {
		return fmt.Errorf("replica: snapshot dataset state: %w", err)
	}
	if err := n.mgr.Install(journals); err != nil {
		return fmt.Errorf("replica: snapshot sessions: %w", err)
	}
	keep := make(map[string]bool, len(snap.Sessions))
	for _, ls := range snap.Sessions {
		keep[ls.Analyst] = true
	}
	for _, info := range n.mgr.Sessions() {
		if !keep[info.Analyst] {
			n.mgr.Drop(info.Analyst)
		}
	}
	if snap.Epoch > n.Epoch() {
		n.epoch.Store(snap.Epoch)
		n.obs.ObserveRole(n.Role() == RolePrimary, snap.Epoch)
	}
	n.journal.Reset(snap.Cursor)
	n.applied.Store(snap.Cursor)
	n.clearQuarantine()
	n.obs.ObserveResync()
	n.logger.Printf("replica: resynced from snapshot: %d session(s), cursor %d, epoch %d",
		len(snap.Sessions), snap.Cursor, snap.Epoch)
	return nil
}

// poll performs one long-poll of the primary's stream endpoint.
func (n *Node) poll(ctx context.Context) (StreamResponse, error) {
	req := StreamRequest{
		After:  n.applied.Load(),
		Epoch:  n.Epoch(),
		WaitMS: n.cfg.PollWait.Milliseconds(),
		Max:    n.cfg.MaxBatch,
		Acks:   n.drainAcks(),
	}
	var resp StreamResponse
	err := n.call(ctx, http.MethodPost, n.PrimaryURL(), "/v1/replication/stream", req, &resp)
	return resp, err
}

// sendDemote is the push arm of fencing: a freshly promoted node tells
// its old primary, best effort, that a higher epoch exists. Failure is
// fine — the old primary also fences itself on the next stream request
// it sees carrying the higher epoch.
func (n *Node) sendDemote(base string, epoch uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp PromoteResponse
	if err := n.call(ctx, http.MethodPost, base, "/v1/replication/demote", DemoteRequest{Epoch: epoch}, &resp); err != nil {
		n.logger.Printf("replica: best-effort demote of %s failed: %v", base, err)
		return
	}
	n.logger.Printf("replica: old primary %s acknowledged demote (now %s at epoch %d)", base, resp.Role, resp.Epoch)
}

// call performs one JSON round trip against a peer node.
func (n *Node) call(ctx context.Context, method, base, path string, body, out any) error {
	url := strings.TrimSuffix(base, "/") + path
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out)
	case http.StatusGone:
		return errTrimmed
	case http.StatusMisdirectedRequest:
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&eb)
		return fmt.Errorf("%w: %s", errFenced, eb.Error)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return fmt.Errorf("replica: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
}

// applyRecord applies one shipped journal record, verifies the resulting
// transcript digest against the primary's, mirrors the record into the
// local journal (preserving global sequence numbers across a future
// promote), and advances the cursor. A digest mismatch or replay error
// quarantines the affected session; the stream keeps flowing for the
// rest.
func (n *Node) applyRecord(rec Record) {
	if rec.Seq <= n.applied.Load() {
		return // re-delivery across a snapshot handoff
	}
	switch rec.Kind {
	case RecordDecision:
		n.applyDecision(rec)
	case RecordUpdate:
		n.applyUpdate(rec)
	default:
		n.logger.Printf("replica: unknown record kind %q at seq %d (skipped)", rec.Kind, rec.Seq)
	}
	n.journal.Mirror(rec)
	n.applied.Store(rec.Seq)
}

func (n *Node) applyDecision(rec Record) {
	if _, bad := n.Quarantined(rec.Analyst); bad {
		return // mirror only; the session is already known-divergent
	}
	// Session sequence 1 means the primary restarted this session's
	// timeline (expiry and re-creation); drop any stale local copy so the
	// new timeline starts clean.
	if rec.SessionSeq == 1 {
		if seq, ok := n.mgr.SeqOf(rec.Analyst); ok && seq > 0 {
			n.mgr.Drop(rec.Analyst)
		}
	}
	ev, err := session.DecodeEvent(rec.Event)
	if err != nil || ev.Update {
		n.quarantine(rec.Analyst, fmt.Sprintf("malformed decision record at seq %d: %v", rec.Seq, err))
		return
	}
	digest, err := n.mgr.ApplyDecision(rec.Analyst, rec.SessionSeq, ev.Decision)
	if err != nil {
		if errors.Is(err, session.ErrApplyStale) {
			return // snapshot already contained this event
		}
		n.quarantine(rec.Analyst, fmt.Sprintf("apply at session seq %d: %v", rec.SessionSeq, err))
		return
	}
	want, err := core.ParseDigest(rec.Digest)
	if err != nil {
		n.quarantine(rec.Analyst, fmt.Sprintf("malformed digest at seq %d: %v", rec.Seq, err))
		return
	}
	if digest != want {
		n.quarantine(rec.Analyst, fmt.Sprintf(
			"transcript digest mismatch at session seq %d: local %s, primary %s",
			rec.SessionSeq, digest.Hex(), want.Hex()))
		return
	}
	n.pendAck(rec.Analyst, rec.SessionSeq, digest)
}

func (n *Node) applyUpdate(rec Record) {
	marks := make([]session.Mark, 0, len(rec.Sessions))
	for _, wm := range rec.Sessions {
		if _, bad := n.Quarantined(wm.Analyst); bad {
			continue
		}
		d, err := core.ParseDigest(wm.Digest)
		if err != nil {
			n.quarantine(wm.Analyst, fmt.Sprintf("malformed update mark digest at seq %d: %v", rec.Seq, err))
			continue
		}
		marks = append(marks, session.Mark{Analyst: wm.Analyst, Seq: wm.Seq, Digest: d})
	}
	outcomes, err := n.mgr.ApplyUpdate(rec.Index, rec.Value, marks)
	if err != nil {
		if errors.Is(err, session.ErrApplyStale) {
			return // snapshot already reflected this update
		}
		// A global failure (index out of range, non-updatable stack) means
		// this node's deployment disagrees with the primary's; that is
		// divergence of every session the update names.
		for _, m := range marks {
			n.quarantine(m.Analyst, fmt.Sprintf("update at seq %d: %v", rec.Seq, err))
		}
		return
	}
	for i, out := range outcomes {
		if out.Err != nil {
			if errors.Is(out.Err, session.ErrApplyStale) {
				continue
			}
			n.quarantine(out.Analyst, fmt.Sprintf("update mark at session seq %d: %v", out.Seq, out.Err))
			continue
		}
		if want := marks[i].Digest; out.Digest != want {
			n.quarantine(out.Analyst, fmt.Sprintf(
				"transcript digest mismatch after update at session seq %d: local %s, primary %s",
				out.Seq, out.Digest.Hex(), want.Hex()))
			continue
		}
		n.pendAck(out.Analyst, out.Seq, out.Digest)
	}
}
