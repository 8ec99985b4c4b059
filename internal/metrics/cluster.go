// Cluster instrumentation: the cluster_* counters and gauges recorded
// by the clustered node (internal/server's ownership gate and migration
// endpoints) and by the routing tier (cmd/auditrouter), under one
// naming scheme.
package metrics

import (
	"strings"
	"sync/atomic"
)

// ClusterNodeMetrics are the node-side cluster series.
//
// Exported names:
//
//	cluster_misrouted_421_total   requests 421'd to their owning shard
//	cluster_imports_total         migrated sessions imported (verified)
//	cluster_import_failures_total imports refused or failed
//	cluster_forgets_total         migrated sessions dropped at their cut
//	cluster_ring_rebuilds_total   fleet-descriptor reloads applied
type ClusterNodeMetrics struct {
	Misrouted      *Counter
	Imports        *Counter
	ImportFailures *Counter
	Forgets        *Counter
	RingRebuilds   *Counter
}

// NewClusterNodeMetrics wires the node-side series into reg.
func NewClusterNodeMetrics(reg *Registry) *ClusterNodeMetrics {
	return &ClusterNodeMetrics{
		Misrouted:      reg.Counter("cluster_misrouted_421_total"),
		Imports:        reg.Counter("cluster_imports_total"),
		ImportFailures: reg.Counter("cluster_import_failures_total"),
		Forgets:        reg.Counter("cluster_forgets_total"),
		RingRebuilds:   reg.Counter("cluster_ring_rebuilds_total"),
	}
}

// ClusterRouterMetrics are the routing-tier series. Per-shard series
// are flat names suffixed with the shard ID (the registry is flat by
// design), pre-registered by RegisterShards so the per-request path
// never takes the registry mutex.
//
// Exported names:
//
//	cluster_requests_routed_total      requests forwarded to a shard
//	cluster_routed_total_<shard>       per-shard forwarded requests
//	cluster_retries_421_total          421 bodies followed (one hop)
//	cluster_breaker_trips_total        circuit-breaker opens
//	cluster_failovers_total            active-URL flips primary→replica
//	cluster_proxy_errors_total         502s served (shard unreachable)
//	cluster_broadcasts_total           fan-out writes (/v1/update)
//	cluster_migrations_total           sessions migrated by rebalances
//	cluster_migration_failures_total   migrations that failed/conflicted
//	cluster_rebalances_total           rebalance plans executed
//	cluster_ring_rebuilds_total        router ring swaps
//	cluster_shards                     gauge: shard count in the ring
//	cluster_shard_lag_<shard>          gauge: replication lag (records)
//	cluster_shard_sessions_<shard>     gauge: tracked sessions
type ClusterRouterMetrics struct {
	reg *Registry

	Routed            *Counter
	Retried421        *Counter
	BreakerTrips      *Counter
	Failovers         *Counter
	ProxyErrors       *Counter
	Broadcasts        *Counter
	Migrations        *Counter
	MigrationFailures *Counter
	Rebalances        *Counter
	RingRebuilds      *Counter
	Shards            *Gauge

	// perShard holds a map[string]*Counter, swapped atomically on ring
	// rebuilds so in-flight requests never race the rebalance path.
	perShard atomic.Value
}

// NewClusterRouterMetrics wires the router-side series into reg.
func NewClusterRouterMetrics(reg *Registry) *ClusterRouterMetrics {
	c := &ClusterRouterMetrics{
		reg:               reg,
		Routed:            reg.Counter("cluster_requests_routed_total"),
		Retried421:        reg.Counter("cluster_retries_421_total"),
		BreakerTrips:      reg.Counter("cluster_breaker_trips_total"),
		Failovers:         reg.Counter("cluster_failovers_total"),
		ProxyErrors:       reg.Counter("cluster_proxy_errors_total"),
		Broadcasts:        reg.Counter("cluster_broadcasts_total"),
		Migrations:        reg.Counter("cluster_migrations_total"),
		MigrationFailures: reg.Counter("cluster_migration_failures_total"),
		Rebalances:        reg.Counter("cluster_rebalances_total"),
		RingRebuilds:      reg.Counter("cluster_ring_rebuilds_total"),
		Shards:            reg.Gauge("cluster_shards"),
	}
	c.perShard.Store(map[string]*Counter{})
	return c
}

// shardSuffix folds a shard ID into a metric-name suffix.
func shardSuffix(id string) string {
	return strings.NewReplacer(".", "_", "-", "_").Replace(id)
}

// RegisterShards (re)builds the per-shard counter set and updates the
// shard-count gauge. Call at construction and after every ring swap;
// counters for departed shards keep their totals (the registry is
// append-only) but stop being written.
func (c *ClusterRouterMetrics) RegisterShards(ids []string) {
	m := make(map[string]*Counter, len(ids))
	for _, id := range ids {
		m[id] = c.reg.Counter("cluster_routed_total_" + shardSuffix(id))
	}
	c.perShard.Store(m)
	c.Shards.Set(int64(len(ids)))
}

// ObserveRouted counts one forwarded request, globally and per shard.
func (c *ClusterRouterMetrics) ObserveRouted(shard string) {
	c.Routed.Inc()
	m, _ := c.perShard.Load().(map[string]*Counter)
	if ctr, ok := m[shard]; ok {
		ctr.Inc()
	}
}

// SetShardLag records one shard's replication lag gauge.
func (c *ClusterRouterMetrics) SetShardLag(shard string, lag uint64) {
	c.reg.Gauge("cluster_shard_lag_" + shardSuffix(shard)).Set(int64(lag))
}

// SetShardSessions records one shard's tracked-session gauge.
func (c *ClusterRouterMetrics) SetShardSessions(shard string, n int) {
	c.reg.Gauge("cluster_shard_sessions_" + shardSuffix(shard)).Set(int64(n))
}
