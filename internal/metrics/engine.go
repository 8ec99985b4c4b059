package metrics

import (
	"time"

	"queryaudit/internal/query"
)

// engineKinds are the aggregate kinds the collector pre-registers, so
// the hot path never takes the registry mutex.
var engineKinds = []query.Kind{
	query.Sum, query.Max, query.Min, query.Count, query.Avg, query.Median,
}

// EngineCollector counts core.Engine protocol events in a Registry. Its
// methods are atomic-only (counters and a histogram), safe to run
// inside the engine lock, and no-ops on a nil receiver.
//
// Exported counter names:
//
//	engine_answered_total_<kind>  answered queries per aggregate kind
//	engine_denied_total_<kind>    denials per aggregate kind
//	engine_prime_ok_total         Prime calls that committed fully
//	engine_prime_failed_total     Prime calls that stopped mid-list
//	engine_primed_queries_total   individual queries committed by Prime
//
// and the histogram engine_decide_seconds (decide/evaluate/record
// critical-section latency).
type EngineCollector struct {
	answered map[query.Kind]*Counter
	denied   map[query.Kind]*Counter
	decide   *Histogram
	primeOK  *Counter
	primeErr *Counter
	primed   *Counter
}

// NewEngineCollector wires a collector into reg.
func NewEngineCollector(reg *Registry) *EngineCollector {
	c := &EngineCollector{
		answered: make(map[query.Kind]*Counter, len(engineKinds)),
		denied:   make(map[query.Kind]*Counter, len(engineKinds)),
		decide:   reg.Histogram("engine_decide_seconds", nil),
		primeOK:  reg.Counter("engine_prime_ok_total"),
		primeErr: reg.Counter("engine_prime_failed_total"),
		primed:   reg.Counter("engine_primed_queries_total"),
	}
	for _, k := range engineKinds {
		c.answered[k] = reg.Counter("engine_answered_total_" + k.String())
		c.denied[k] = reg.Counter("engine_denied_total_" + k.String())
	}
	return c
}

// ObserveDecision reports one completed top-level query: its aggregate
// kind, whether it was denied, and how long the decide/evaluate/record
// critical section took.
func (c *EngineCollector) ObserveDecision(kind query.Kind, denied bool, elapsed time.Duration) {
	if c == nil {
		return
	}
	c.decide.ObserveDuration(elapsed)
	m := c.answered
	if denied {
		m = c.denied
	}
	if ctr, ok := m[kind]; ok {
		ctr.Inc()
	}
}

// ObservePrime reports one Prime call: how many queries it committed
// and whether the whole list succeeded.
func (c *EngineCollector) ObservePrime(committed int, ok bool) {
	if c == nil {
		return
	}
	c.primed.Add(int64(committed))
	if ok {
		c.primeOK.Inc()
	} else {
		c.primeErr.Inc()
	}
}
