package metrics

import "time"

// ReplicaApplyBuckets bound the batch-apply latency histogram: applying
// a handful of full-disclosure decisions is microseconds, a batch of
// probabilistic Monte Carlo decisions can run into seconds.
var ReplicaApplyBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10,
}

// ReplicaCollector counts replica.Node events in a Registry. All methods
// are atomic-only and no-ops on a nil receiver.
//
// Exported names:
//
//	replica_role                     gauge: 1 primary, 0 replica
//	replica_epoch                    gauge: current cluster epoch
//	replica_records_shipped_total    records served to stream polls
//	replica_stream_polls_total       stream polls served (heartbeats incl.)
//	replica_records_applied_total    records applied by the follower loop
//	replica_apply_batch_seconds      histogram of per-batch apply latency
//	replica_lag_records              gauge: follower lag in journal records
//	replica_divergence_total         transcript digest mismatches detected
//	replica_quarantined_sessions     gauge: sessions quarantined right now
//	replica_resync_total             snapshot resyncs performed
//	replica_reconnects_total         stream reconnect attempts after errors
type ReplicaCollector struct {
	role        *Gauge
	epoch       *Gauge
	shipped     *Counter
	polls       *Counter
	applied     *Counter
	applyBatch  *Histogram
	lag         *Gauge
	divergence  *Counter
	quarantined *Gauge
	resyncs     *Counter
	reconnects  *Counter
}

// NewReplicaCollector wires a collector into reg.
func NewReplicaCollector(reg *Registry) *ReplicaCollector {
	return &ReplicaCollector{
		role:        reg.Gauge("replica_role"),
		epoch:       reg.Gauge("replica_epoch"),
		shipped:     reg.Counter("replica_records_shipped_total"),
		polls:       reg.Counter("replica_stream_polls_total"),
		applied:     reg.Counter("replica_records_applied_total"),
		applyBatch:  reg.Histogram("replica_apply_batch_seconds", ReplicaApplyBuckets),
		lag:         reg.Gauge("replica_lag_records"),
		divergence:  reg.Counter("replica_divergence_total"),
		quarantined: reg.Gauge("replica_quarantined_sessions"),
		resyncs:     reg.Counter("replica_resync_total"),
		reconnects:  reg.Counter("replica_reconnects_total"),
	}
}

// ObserveRole reports a role or epoch transition. The role gauge uses
// the wire convention 1=primary, 0=replica so `max(replica_role)` alerts
// when a cluster has no primary and `sum(replica_role) > 1` when it has
// two.
func (c *ReplicaCollector) ObserveRole(primary bool, epoch uint64) {
	if c == nil {
		return
	}
	if primary {
		c.role.Set(1)
	} else {
		c.role.Set(0)
	}
	c.epoch.Set(int64(epoch))
}

// ObserveShipped counts records served to stream polls (primary side).
func (c *ReplicaCollector) ObserveShipped(records int) {
	if c != nil {
		c.shipped.Add(int64(records))
	}
}

// ObserveStreamPoll counts one stream poll served (heartbeats included).
func (c *ReplicaCollector) ObserveStreamPoll() {
	if c != nil {
		c.polls.Inc()
	}
}

// ObserveApplied counts records applied by the follower loop and the
// time their batch took to apply.
func (c *ReplicaCollector) ObserveApplied(records int, d time.Duration) {
	if c != nil {
		c.applied.Add(int64(records))
		c.applyBatch.ObserveDuration(d)
	}
}

// ObserveLag reports follower lag in journal records after each poll.
func (c *ReplicaCollector) ObserveLag(records uint64) {
	if c != nil {
		c.lag.Set(int64(records))
	}
}

// ObserveDivergence counts one transcript digest mismatch (either end).
func (c *ReplicaCollector) ObserveDivergence() {
	if c != nil {
		c.divergence.Inc()
	}
}

// ObserveQuarantine reports the current quarantined-session count.
func (c *ReplicaCollector) ObserveQuarantine(sessions int) {
	if c != nil {
		c.quarantined.Set(int64(sessions))
	}
}

// ObserveResync counts one snapshot resync performed by the follower.
func (c *ReplicaCollector) ObserveResync() {
	if c != nil {
		c.resyncs.Inc()
	}
}

// ObserveReconnect counts one stream reconnect attempt after an error.
func (c *ReplicaCollector) ObserveReconnect() {
	if c != nil {
		c.reconnects.Inc()
	}
}
