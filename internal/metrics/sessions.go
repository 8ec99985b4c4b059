package metrics

import (
	"strconv"
	"time"
)

// SessionReplayBuckets bound the replay-latency histogram: rebuilding a
// short log is microseconds; replaying thousands of probabilistic
// decisions can take whole seconds.
var SessionReplayBuckets = []float64{
	0.00025, 0.001, 0.0025, 0.01, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// SessionCollector counts session.Manager lifecycle events in a
// Registry. All methods are atomic-only, safe to call from the session
// hot path (some run under shard locks), and no-ops on a nil receiver.
//
// Exported names:
//
//	sessions_live              gauge: sessions with a materialized engine
//	sessions_tracked           gauge: sessions with a retained log
//	sessions_created_total     sessions admitted
//	sessions_evicted_total     engines dropped to their logs (LRU/admin)
//	sessions_expired_total     sessions removed by TTL expiry
//	sessions_rejected_total    admissions refused (503 upstream)
//	sessions_replayed_total    engines rebuilt by log replay
//	session_replay_events_total  log events replayed
//	session_replay_seconds     histogram of per-rebuild replay latency
//	session_shard_waiters_<i>  gauge: goroutines waiting on shard i's lock
type SessionCollector struct {
	live     *Gauge
	tracked  *Gauge
	created  *Counter
	evicted  *Counter
	expired  *Counter
	rejected *Counter
	replayed *Counter
	events   *Counter
	latency  *Histogram
	waiters  []*Gauge
}

// NewSessionCollector wires a collector for a manager with the given
// shard count into reg. Shard gauges are pre-registered so the lock path
// never touches the registry mutex.
func NewSessionCollector(reg *Registry, shards int) *SessionCollector {
	c := &SessionCollector{
		live:     reg.Gauge("sessions_live"),
		tracked:  reg.Gauge("sessions_tracked"),
		created:  reg.Counter("sessions_created_total"),
		evicted:  reg.Counter("sessions_evicted_total"),
		expired:  reg.Counter("sessions_expired_total"),
		rejected: reg.Counter("sessions_rejected_total"),
		replayed: reg.Counter("sessions_replayed_total"),
		events:   reg.Counter("session_replay_events_total"),
		latency:  reg.Histogram("session_replay_seconds", SessionReplayBuckets),
		waiters:  make([]*Gauge, shards),
	}
	for i := range c.waiters {
		c.waiters[i] = reg.Gauge("session_shard_waiters_" + strconv.Itoa(i))
	}
	return c
}

// ObserveSessionCreated counts one admitted session.
func (c *SessionCollector) ObserveSessionCreated() {
	if c != nil {
		c.created.Inc()
		c.tracked.Add(1)
	}
}

// ObserveSessionEvicted counts one engine dropped to its log.
func (c *SessionCollector) ObserveSessionEvicted() {
	if c != nil {
		c.evicted.Inc()
	}
}

// ObserveSessionRemoved counts one session removed from the table, log
// included; expired marks a TTL expiry, as opposed to an explicit drop.
func (c *SessionCollector) ObserveSessionRemoved(expired bool) {
	if c == nil {
		return
	}
	if expired {
		c.expired.Inc()
	}
	c.tracked.Add(-1)
}

// ObserveSessionRejected counts one refused admission.
func (c *SessionCollector) ObserveSessionRejected() {
	if c != nil {
		c.rejected.Inc()
	}
}

// ObserveReplay reports one engine rebuild: how many log events were
// replayed and how long the rebuild took.
func (c *SessionCollector) ObserveReplay(events int, d time.Duration) {
	if c != nil {
		c.replayed.Inc()
		c.events.Add(int64(events))
		c.latency.ObserveDuration(d)
	}
}

// ObserveLive reports a live-engine count change (+1/-1).
func (c *SessionCollector) ObserveLive(delta int) {
	if c != nil {
		c.live.Add(int64(delta))
	}
}

// ObserveShardWait reports shard-lock contention: +1 when a goroutine
// starts waiting on a contended shard lock, -1 once it acquires it.
func (c *SessionCollector) ObserveShardWait(shard, delta int) {
	if c != nil && shard >= 0 && shard < len(c.waiters) {
		c.waiters[shard].Add(int64(delta))
	}
}
