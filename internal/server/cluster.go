package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"queryaudit/internal/cluster"
	"queryaudit/internal/core"
	"queryaudit/internal/metrics"
	"queryaudit/internal/session"
)

// Cluster integration: in a sharded fleet every node knows which shard
// it is (cluster.NodeView) and fences analysts it does not own with a
// 421 naming the real owner, so the router and any direct client
// converge on the correct shard instead of silently forking an
// analyst's audit timeline across nodes. The node also serves the
// migration endpoints the rebalance path drives (journal export,
// replayed import, conditional forget) and the per-node status the
// router aggregates into GET /v1/cluster.

// maxImportBody bounds a migrated journal's wire size. Session journals
// can legitimately exceed the ordinary request cap by orders of
// magnitude, so the import endpoint gets its own ceiling.
const maxImportBody = 64 << 20

// WithCluster attaches a cluster view: session-scoped endpoints answer
// 421 for analysts owned by another shard, every response carries an
// X-Shard-ID header, and the /v1/cluster/* node endpoints mount.
func WithCluster(v *cluster.NodeView) Option { return func(s *Server) { s.cview = v } }

// clusterRoutes are the node-side cluster endpoints, mounted when a
// NodeView is attached (see NewWithSessions).
func (s *Server) clusterRoutes() {
	s.clusterM = metrics.NewClusterNodeMetrics(s.reg)
	s.mux.HandleFunc("GET /v1/cluster/node", s.handleClusterNode)
	s.mux.HandleFunc("GET /v1/cluster/journal", s.whenReady(s.handleClusterJournal))
	s.mux.HandleFunc("POST /v1/cluster/import", s.whenReady(s.writable(s.handleClusterImport)))
	s.mux.HandleFunc("POST /v1/cluster/forget", s.whenReady(s.writable(s.handleClusterForget)))
	s.mux.HandleFunc("POST /v1/cluster/config", s.handleClusterConfig)
}

// ownershipGate enforces shard ownership for one analyst. It reports
// whether the handler should proceed; a miss answers 421 naming the
// owning shard's primary so the caller can follow in one hop.
func (s *Server) ownershipGate(w http.ResponseWriter, analyst string) bool {
	if s.cview == nil {
		return true
	}
	owner, ok := s.cview.Owns(analyst)
	if ok {
		return true
	}
	s.clusterM.Misrouted.Inc()
	s.writeJSON(w, http.StatusMisdirectedRequest, cluster.MisdirectedBody{
		Error:      "analyst " + analyst + " is owned by shard " + owner.ID + ", not this node",
		Shard:      owner.ID,
		Epoch:      owner.Epoch,
		PrimaryURL: owner.Primary,
	})
	return false
}

// handleClusterNode reports this node's cluster identity and
// replication position — one row of the router's GET /v1/cluster view.
func (s *Server) handleClusterNode(w http.ResponseWriter, _ *http.Request) {
	st := cluster.NodeStatus{
		Shard:           s.cview.ShardID(),
		Role:            "primary", // an unreplicated shard is its own primary
		SessionsTracked: s.mgr.Tracked(),
		SessionsLive:    s.mgr.Live(),
		Reloads:         s.cview.Reloads(),
	}
	if s.repl != nil {
		rs := s.repl.Status()
		st.Role = rs.Role
		st.Epoch = rs.Epoch
		st.Head = rs.Head
		st.Applied = rs.Applied
		st.Lag = rs.Lag
		st.Quarantined = rs.Quarantined
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleClusterJournal exports one session's journal for migration.
// Deliberately NOT ownership-gated: the exporting node is usually the
// one that just LOST ownership under the new descriptor.
func (s *Server) handleClusterJournal(w http.ResponseWriter, r *http.Request) {
	analyst := r.URL.Query().Get("analyst")
	if analyst == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing ?analyst="})
		return
	}
	snap, ok := s.mgr.Export(analyst)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "no session for analyst " + analyst})
		return
	}
	s.writeJSON(w, http.StatusOK, cluster.JournalResponse{
		Shard:    s.cview.ShardID(),
		Snapshot: snap,
	})
}

// handleClusterImport admits a migrated session: validate the shipped
// digest chain, replay it into a fresh engine, and report the replayed
// position for the migrator to verify. A conflicting existing timeline
// is 409 — never silently resolved.
func (s *Server) handleClusterImport(w http.ResponseWriter, r *http.Request) {
	var req cluster.ImportRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxImportBody)).Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed import request: " + err.Error()})
		return
	}
	seq, digest, err := s.mgr.Import(req.Snapshot)
	if err != nil {
		s.clusterM.ImportFailures.Inc()
		switch {
		case errors.Is(err, session.ErrImportConflict):
			s.writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		case s.writeSessionErr(w, err):
		default:
			s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		}
		return
	}
	s.clusterM.Imports.Inc()
	if s.repl != nil {
		// Ship the imported journal to this shard's followers as one
		// record: the history bypassed the decision tap, so without this
		// the replica would see the next live event as a sequence gap.
		s.repl.JournalSessionImport(req.Snapshot)
	}
	s.writeJSON(w, http.StatusOK, cluster.ImportResponse{
		Analyst: req.Snapshot.Analyst,
		Seq:     seq,
		Digest:  digest.Hex(),
	})
}

// handleClusterForget drops a migrated-away session at its verified
// position — the atomic cut of the handoff. The analyst is then fenced
// to the successor shard until the next descriptor reload, so a request
// racing the config push cannot start a fresh timeline here.
func (s *Server) handleClusterForget(w http.ResponseWriter, r *http.Request) {
	var req cluster.ForgetRequest
	ok, tooLarge := s.decodeBody(w, r, &req)
	if tooLarge {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "request body too large"})
		return
	}
	if !ok || req.Analyst == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must name analyst, seq and digest"})
		return
	}
	digest, err := core.ParseDigest(req.Digest)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if err := s.mgr.DropIfAt(req.Analyst, req.Seq, digest); err != nil {
		if errors.Is(err, session.ErrPositionMoved) {
			s.writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
			return
		}
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if req.SuccessorShard != "" {
		s.cview.MarkMoved(req.Analyst, cluster.ShardSpec{
			ID:      req.SuccessorShard,
			Primary: req.SuccessorURL,
		})
	}
	s.clusterM.Forgets.Inc()
	if s.repl != nil {
		s.repl.JournalSessionForget(req.Analyst)
	}
	s.writeJSON(w, http.StatusOK, cluster.ForgetResponse{Dropped: true})
}

// handleClusterConfig swaps in a new fleet descriptor (the rebalance
// push). The node revalidates the descriptor and refuses one that drops
// its own shard; a higher epoch for this shard in the new descriptor is
// adopted into the replication fence.
func (s *Server) handleClusterConfig(w http.ResponseWriter, r *http.Request) {
	var req cluster.ConfigRequest
	ok, tooLarge := s.decodeBody(w, r, &req)
	if tooLarge {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "request body too large"})
		return
	}
	if !ok || len(req.Fleet) == 0 {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must be {\"fleet\": {...}}"})
		return
	}
	fleet, err := cluster.ParseFleet(bytes.NewReader(req.Fleet))
	if err != nil {
		s.writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	reloads, err := s.cview.Reload(fleet)
	if err != nil {
		s.writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	s.clusterM.RingRebuilds.Inc()
	if sp, ok := fleet.Shard(s.cview.ShardID()); ok && s.repl != nil {
		s.repl.AdoptEpoch(sp.Epoch)
	}
	s.writeJSON(w, http.StatusOK, cluster.ConfigResponse{
		Shard:   s.cview.ShardID(),
		Shards:  len(fleet.Shards),
		Reloads: reloads,
	})
}
