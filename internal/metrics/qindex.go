package metrics

import "time"

// QIndexBuildBuckets bound the index-build histogram: a small demo
// dataset indexes in microseconds; a million-row deployment takes
// fractions of a second.
var QIndexBuildBuckets = []float64{
	0.00025, 0.001, 0.0025, 0.01, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// QIndexCollector counts qindex.Resolver cache events in a Registry.
// All methods are atomic-only (some run while the resolver or interner
// lock is held, so they must stay that way) and no-ops on a nil
// receiver.
//
// Exported names:
//
//	qindex_sql_hits_total        statement-memo hits
//	qindex_sql_misses_total      statement-memo misses (parse + resolve)
//	qindex_intern_hits_total     set internings that found the canonical
//	qindex_intern_misses_total   set internings that created a canonical
//	qindex_evictions_sql_total   statement-memo LRU evictions
//	qindex_evictions_intern_total  canonical sets displaced by the LRU
//	                               bound or by a hash collision
//	qindex_builds_total          index builds
//	qindex_build_rows_total      rows covered by builds
//	qindex_build_seconds         histogram of per-build wall time
type QIndexCollector struct {
	sqlHits     *Counter
	sqlMisses   *Counter
	internHits  *Counter
	internMiss  *Counter
	evictSQL    *Counter
	evictIntern *Counter
	builds      *Counter
	buildRows   *Counter
	buildTime   *Histogram
}

// NewQIndexCollector wires a collector into reg.
func NewQIndexCollector(reg *Registry) *QIndexCollector {
	return &QIndexCollector{
		sqlHits:     reg.Counter("qindex_sql_hits_total"),
		sqlMisses:   reg.Counter("qindex_sql_misses_total"),
		internHits:  reg.Counter("qindex_intern_hits_total"),
		internMiss:  reg.Counter("qindex_intern_misses_total"),
		evictSQL:    reg.Counter("qindex_evictions_sql_total"),
		evictIntern: reg.Counter("qindex_evictions_intern_total"),
		builds:      reg.Counter("qindex_builds_total"),
		buildRows:   reg.Counter("qindex_build_rows_total"),
		buildTime:   reg.Histogram("qindex_build_seconds", QIndexBuildBuckets),
	}
}

// ObserveResolve reports one statement-memo lookup.
func (c *QIndexCollector) ObserveResolve(hit bool) {
	switch {
	case c == nil:
	case hit:
		c.sqlHits.Inc()
	default:
		c.sqlMisses.Inc()
	}
}

// ObserveIntern reports one set interning (hit: the canonical instance
// already existed).
func (c *QIndexCollector) ObserveIntern(hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.internHits.Inc()
	} else {
		c.internMiss.Inc()
	}
}

// ObserveEviction reports one LRU eviction from the named layer ("sql"
// or "intern").
func (c *QIndexCollector) ObserveEviction(layer string) {
	if c == nil {
		return
	}
	if layer == "sql" {
		c.evictSQL.Inc()
	} else {
		c.evictIntern.Inc()
	}
}

// ObserveBuild reports one index build: rows covered and wall time.
func (c *QIndexCollector) ObserveBuild(rows int, elapsed time.Duration) {
	if c == nil {
		return
	}
	c.builds.Inc()
	c.buildRows.Add(int64(rows))
	c.buildTime.ObserveDuration(elapsed)
}
