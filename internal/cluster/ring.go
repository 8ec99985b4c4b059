// Package cluster scales the audited database horizontally: analysts are
// hashed onto N primary/replica shard pairs by a deterministic
// consistent-hash ring, so per-node memory and CPU stay bounded no
// matter how large the analyst population grows. The paper's
// simulatability property (§2.2) is what makes the scale-out shape
// sound: an analyst's entire auditor state is a pure function of their
// session journal, so a session can live on exactly one shard at a time
// and MOVE between shards by shipping and replaying its journal
// (Migrator), with the transcript digest chain proving the move was
// bit-identical before the old owner drops its copy.
//
// The package is deliberately split along the determinism boundary
// enforced by auditlint's detrand analyzer: everything here — the ring,
// the fleet descriptor, the ownership view, the migration protocol — is
// a pure function of its inputs (no clocks, no global randomness, no
// map-ordered output), because routing decisions must agree across the
// router and every node given the same fleet descriptor. Time-dependent
// policy (circuit breaking, retry pacing) lives in cmd/auditrouter,
// outside the audited core.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per shard when the fleet
// descriptor does not set one. 128 vnodes keep the expected max/mean
// load ratio within a few percent for small fleets while the ring stays
// a few KiB.
const DefaultVNodes = 128

// hash64 is the ring's hash: FNV-1a seeded by XOR-ing the seed into the
// offset basis, then finished with a splitmix64-style avalanche so
// short, similar keys (analyst-1, analyst-2, ...) still spread across
// the whole 64-bit space. It is a pure function of (seed, key): every
// consumer of the same fleet descriptor computes identical placements,
// on any platform, in any process.
func hash64(seed uint64, key string) uint64 {
	h := uint64(14695981039346656037) ^ seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash  uint64
	shard int // index into Ring.shards
}

// Ring is a consistent-hash ring over shard IDs: vnodes virtual nodes
// per shard, placed by the seeded hash. Owner is a pure function of
// (key, membership, vnodes, seed) — adding or removing one shard moves
// only the keys whose arc changed hands (≈ K/N of them), which is what
// keeps rebalances proportional to the membership change instead of the
// analyst population. A Ring is immutable after construction and safe
// for concurrent use.
type Ring struct {
	seed   uint64
	shards []string // sorted unique shard IDs
	points []ringPoint
}

// NewRing builds a ring over the given shard IDs. IDs must be non-empty
// and unique; vnodes <= 0 takes DefaultVNodes. The input slice is not
// retained.
func NewRing(shardIDs []string, vnodes int, seed uint64) (*Ring, error) {
	if len(shardIDs) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	shards := append([]string(nil), shardIDs...)
	sort.Strings(shards)
	for i, id := range shards {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty shard id")
		}
		if i > 0 && shards[i-1] == id {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", id)
		}
	}
	r := &Ring{
		seed:   seed,
		shards: shards,
		points: make([]ringPoint, 0, len(shards)*vnodes),
	}
	for si, id := range shards {
		for v := 0; v < vnodes; v++ {
			// Shard IDs are validated (fleet.go) to exclude '#', so the
			// vnode label cannot collide across shards.
			r.points = append(r.points, ringPoint{
				hash:  hash64(seed, id+"#"+strconv.Itoa(v)),
				shard: si,
			})
		}
	}
	// Ties (two vnodes at the same 64-bit point) are broken by shard
	// index — itself derived from the sorted ID order — so placement
	// stays deterministic even across a hash collision.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the ring's shard IDs in sorted order. The caller must
// not mutate the returned slice.
func (r *Ring) Shards() []string { return r.shards }

// Owner returns the shard ID owning key: the first virtual node at or
// clockwise of the key's hash, wrapping at the top of the space.
func (r *Ring) Owner(key string) string {
	h := hash64(r.seed, key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.shards[r.points[i].shard]
}

// Spread counts how many of the given keys each shard owns — the
// diagnostic behind rebalance planning and the ring-stability tests.
// Every shard appears in the result, zero-count shards included.
func (r *Ring) Spread(keys []string) map[string]int {
	out := make(map[string]int, len(r.shards))
	for _, id := range r.shards {
		out[id] = 0
	}
	for _, k := range keys {
		out[r.Owner(k)]++
	}
	return out
}
