// Command auditserver serves an audited statistical database over HTTP —
// the census-bureau deployment shape of the paper's introduction. It
// loads (or generates) a company-salary table, guards it with the
// full-disclosure auditors, and answers a JSON API:
//
//	auditserver -n 300 -addr :8080 [-session-snapshot sessions.json]
//
//	curl -s localhost:8080/v1/schema
//	curl -s -X POST localhost:8080/v1/query \
//	     -H 'X-Analyst-ID: alice' \
//	     -d '{"sql":"SELECT sum(salary) WHERE age BETWEEN 30 AND 40"}'
//	curl -s -X POST localhost:8080/v1/queryset \
//	     -H 'X-Analyst-ID: alice' -d '{"kind":"max","indices":[0,1,2,3]}'
//	curl -s -H 'X-Analyst-ID: alice' localhost:8080/v1/stats
//	curl -s localhost:8080/v1/sessions
//	curl -s localhost:8080/v1/metrics
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//
// # Multi-analyst sessions
//
// Every request runs in the session of the analyst named by its
// X-Analyst-ID header (or ?analyst= parameter; neither means the shared
// "default" session). Each session is an isolated auditor stack built
// from the same factories, so one analyst's denials never depend on
// another's history. That isolation is unsafe when analysts can collude
// or mint new IDs (docs/DEPLOYMENT.md §1 and §11).
// -max-sessions bounds admitted analysts (beyond it: 503 + Retry-After),
// -session-max-live bounds materialized engines (idle sessions are
// evicted down to their compact query log and rebuilt bit-identically by
// replay on return), -session-ttl expires idle sessions outright, and
// -session-shards sizes the session table's lock striping.
//
// With -auditors=prob the table is instead guarded by the probabilistic
// (λ, δ, γ, T) auditors of Section 3 — maxminprob on max/min, sumprob on
// sum — whose Monte Carlo decisions run on one shared scheduler: an
// assist pool sized by -mc-workers (0 = GOMAXPROCS) multiplexed across
// every session's concurrent decisions, with -mc-workers also capping
// each single decision's share. Decisions are bit-identical at any
// worker count for a fixed -prob-seed; /v1/metrics exports the mc_* and
// mcsched_* counters (samples per decision, early-exit savings,
// parallel speedup, assist-pool split).
//
// With -session-snapshot every session's query log is restored at
// startup (if the file exists) and written back on SIGINT/SIGTERM,
// together with the sensitive values once an update has changed them; the
// server reports ready on /readyz only after replay completes. Works for
// both auditor families (replay reconstructs Monte Carlo state exactly,
// given the same -prob-seed and parameters). Without it the server says
// at startup that a restart forgets every audit history. The removed
// -snapshot flag is still recognized, only to exit at startup naming
// -session-snapshot.
//
// Shutdown is graceful: on the first SIGINT/SIGTERM the server stops
// accepting connections, drains in-flight requests (bounded by
// -shutdown-timeout), flushes the session snapshot, and logs the final
// protocol and HTTP counters. A second signal aborts immediately.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"queryaudit/internal/core"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/metrics"
	"queryaudit/internal/persist"
	"queryaudit/internal/replica"
	"queryaudit/internal/server"
	"queryaudit/internal/session"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		snapshot    = flag.String("snapshot", "", "removed: use -session-snapshot (setting it exits at startup)")
		sessSnap    = flag.String("session-snapshot", "", "path for the per-analyst session logs (restored by replay at startup)")
		maxSessions = flag.Int("max-sessions", 4096, "maximum admitted analyst sessions (0 = unlimited; beyond it new analysts get 503)")
		maxLive     = flag.Int("session-max-live", 256, "maximum materialized session engines before LRU eviction to logs (0 = unlimited)")
		sessTTL     = flag.Duration("session-ttl", time.Hour, "idle time before a session (log included) expires (0 = never)")
		sessShards  = flag.Int("session-shards", 16, "lock shards for the session table (at least 1)")
		maxBody     = flag.Int64("max-body-bytes", 1<<20, "maximum POST body size in bytes")
		maxIndices  = flag.Int("max-indices", 100_000, "maximum indices per query set")
		perClient   = flag.Int("per-client-concurrency", 0, "maximum in-flight requests per client IP (0 = unlimited)")
		drain       = flag.Duration("shutdown-timeout", 10*time.Second, "graceful drain window on SIGINT/SIGTERM")
		quietAccess = flag.Bool("quiet", false, "disable per-request access logging")

		role          = flag.String("role", "standalone", "replication role: standalone (no replication), primary (ships its journal), or replica (read-only follower)")
		primaryURL    = flag.String("primary-url", "", "replica: base URL of the primary to stream from (e.g. http://127.0.0.1:8080)")
		replRetention = flag.Int("replication-retention", 4096, "records retained in the replication journal tail (followers further behind resync from a snapshot)")
		replPollWait  = flag.Duration("replication-poll-wait", 10*time.Second, "how long a stream long-poll is held open (heartbeat interval when idle)")
		replMaxBatch  = flag.Int("replication-max-batch", 256, "maximum records per stream response")
	)
	stack := core.DefaultStackConfig()
	stack.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger := log.New(os.Stderr, "auditserver ", log.LstdFlags|log.Lmsgprefix)
	if *snapshot != "" {
		logger.Fatalf("-snapshot has been removed: use -session-snapshot, which persists every session's journal and restores it by replay")
	}
	if *sessShards < 1 {
		// The shard-waiter gauges are sized from this flag, so a value the
		// manager would round up to its default must not reach them.
		logger.Fatalf("-session-shards must be at least 1, got %d", *sessShards)
	}
	switch *role {
	case "standalone", "primary":
	case "replica":
		if *primaryURL == "" {
			logger.Fatalf("-role=replica requires -primary-url")
		}
	default:
		logger.Fatalf("unknown -role %q (want standalone, primary or replica)", *role)
	}
	if *role != "replica" && *primaryURL != "" {
		logger.Fatalf("-primary-url only applies to -role=replica")
	}

	// The stack flags are auditreport's: an auditreport run handed the
	// same values builds a bit-identical stack, which is what makes
	// retrospective verdicts reproduce live ones.
	if err := stack.Validate(); err != nil {
		logger.Fatalf("%v", err)
	}
	ds := stack.NewDataset()

	// One spec builds every session's engine: identical fresh auditors,
	// collectors installed at construction (never mid-flight).
	reg := metrics.NewRegistry()
	spec := core.NewEngineSpec(ds)
	spec.SetObserver(metrics.NewEngineCollector(reg))
	spec.SetMCObserver(metrics.NewMCCollector(reg))
	if err := stack.RegisterAuditors(spec); err != nil {
		logger.Fatalf("auditors: %v", err)
	}
	if stack.Family == "prob" {
		// One assist pool for the whole process: every session's decisions
		// multiplex over it, so concurrent analysts share the machine
		// instead of each fanning out their own goroutines.
		sched := mcpar.NewScheduler(stack.MCWorkers)
		sched.SetObserver(metrics.NewSchedCollector(reg))
		spec.SetMCScheduler(sched)
		logger.Printf("probabilistic auditors: lambda=%g gamma=%d delta=%g T=%d mc-workers=%d sched-pool=%d (sensitive values normalized to [0,1])",
			stack.Lambda, stack.Gamma, stack.Delta, stack.T, stack.MCWorkers, sched.Size())
	}

	mgr, err := session.NewManager(spec, session.Config{
		MaxSessions: *maxSessions,
		MaxLive:     *maxLive,
		TTL:         *sessTTL,
		Shards:      *sessShards,
		Observer:    metrics.NewSessionCollector(reg, *sessShards),
	})
	if err != nil {
		logger.Fatalf("sessions: %v", err)
	}
	defer mgr.Close()

	// Replication node: wired before the server so role gating and the
	// /v1/replication endpoints are in place for the first request. The
	// epoch is adopted from the session snapshot during restore (below),
	// so a restarted node rejoins with the fence it last held.
	var node *replica.Node
	if *role != "standalone" {
		r := replica.RolePrimary
		if *role == "replica" {
			r = replica.RoleReplica
		}
		node = replica.NewNode(mgr, r, 0, *primaryURL, replica.Config{
			Retention: *replRetention,
			PollWait:  *replPollWait,
			MaxBatch:  *replMaxBatch,
			Logger:    logger,
			Observer:  metrics.NewReplicaCollector(reg),
		})
	}

	opts := server.Defaults()
	opts.MaxBodyBytes = *maxBody
	opts.MaxIndices = *maxIndices
	opts.PerClientConcurrency = *perClient
	opts.ShutdownTimeout = *drain
	if !*quietAccess {
		opts.AccessLog = logger
	}
	srvOpts := []server.Option{
		server.WithOptions(opts), server.WithMetrics(reg), server.WithReadinessGate(),
	}
	if node != nil {
		srvOpts = append(srvOpts, server.WithReplication(node))
	}
	srv := server.NewWithSessions(mgr, "salary", srvOpts...)

	// First SIGINT/SIGTERM cancels ctx (graceful drain); a second signal
	// restores default handling, so it kills the process outright. A
	// failed session restore also cancels, via the same context.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(sigCtx)
	defer cancel()

	logger.Printf("%s", ds.Describe())
	if *sessSnap == "" {
		logger.Printf("no -session-snapshot: audit histories live only in memory, so a restart forgets every one (docs/DEPLOYMENT.md §4)")
	}
	ready := make(chan net.Addr, 1)
	go func() {
		a, ok := <-ready
		if !ok {
			return
		}
		// Restore session logs while the listener already accepts:
		// /healthz answers (liveness) but /readyz and the session-scoped
		// endpoints stay 503 until replay finishes. The "listening on"
		// line is the external go-signal (scripts and the e2e test key
		// on it), so it is only printed once the server is ready.
		if *sessSnap != "" {
			start := time.Now()
			n, epoch, err := persist.LoadFile(*sessSnap, mgr)
			if err != nil {
				logger.Printf("session restore failed: %v", err)
				cancel()
				return
			}
			if n > 0 {
				logger.Printf("restored %d session logs from %s in %s", n, *sessSnap, time.Since(start).Round(time.Millisecond))
			}
			if node != nil && epoch > 0 {
				node.AdoptEpoch(epoch)
				logger.Printf("replication: rejoined at persisted epoch %d", epoch)
			}
		}
		// A replica starts streaming before it reports ready: the follower
		// loop's first act is a full snapshot resync from the primary, so
		// by the time reads land the node serves current (or quarantined)
		// state, not whatever a stale local snapshot held.
		if node != nil && node.Role() == replica.RoleReplica {
			if err := node.StartFollower(ctx); err != nil {
				logger.Printf("replication: %v", err)
				cancel()
				return
			}
		}
		srv.MarkReady()
		if node != nil {
			logger.Printf("replication: role=%s epoch=%d primary=%q", node.Role(), node.Epoch(), node.PrimaryURL())
		}
		logger.Printf("listening on %s", a)
		logger.Printf("ready (sessions live=%d tracked=%d)", mgr.Live(), mgr.Tracked())
	}()
	err = srv.Run(ctx, *addr, ready)
	stop()
	if err != nil {
		logger.Printf("serve: %v", err)
	}

	// Post-drain: stop replication first so no shipped record lands
	// mid-snapshot, then flush the session logs and report counters.
	if node != nil {
		node.StopFollower()
	}
	exit := 0
	if *sessSnap != "" {
		var epoch uint64
		if node != nil {
			epoch = node.Epoch()
		}
		if n, err := persist.SaveFile(*sessSnap, mgr, epoch); err != nil {
			logger.Printf("session snapshot save failed: %v", err)
			exit = 1
		} else {
			logger.Printf("session logs saved to %s (%d sessions, epoch %d)", *sessSnap, n, epoch)
		}
	}
	st := mgr.Stats(session.DefaultAnalyst)
	logger.Printf("final stats: answered=%d denied=%d records=%d modifications=%d",
		st.Answered, st.Denied, st.Records, st.Modifications)
	snap := reg.Snapshot()
	logger.Printf("sessions: created=%d evicted=%d expired=%d rejected=%d replayed=%d live=%d",
		snap.Counters["sessions_created_total"], snap.Counters["sessions_evicted_total"],
		snap.Counters["sessions_expired_total"], snap.Counters["sessions_rejected_total"],
		snap.Counters["sessions_replayed_total"], snap.Gauges["sessions_live"])
	logger.Printf("http: requests=%d 2xx=%d 4xx=%d 5xx=%d throttled=%d",
		snap.Counters["http_requests_total"], snap.Counters["http_responses_total_2xx"],
		snap.Counters["http_responses_total_4xx"], snap.Counters["http_responses_total_5xx"],
		snap.Counters["http_throttled_total"])
	if h, ok := snap.Histograms["engine_decide_seconds"]; ok && h.Count > 0 {
		logger.Printf("engine: decisions=%d p50=%.4fs p99=%.4fs", h.Count, h.Quantile(0.5), h.Quantile(0.99))
	}
	if err != nil {
		exit = 1
	}
	os.Exit(exit)
}
