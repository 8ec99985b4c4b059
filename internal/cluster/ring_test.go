package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func testKeys(k int) []string {
	keys := make([]string, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("analyst-%d", i)
	}
	return keys
}

func shardIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("shard-%d", i)
	}
	return ids
}

func mustRing(t *testing.T, ids []string) *Ring {
	t.Helper()
	r, err := NewRing(ids, DefaultVNodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRingStability pins the two consistent-hashing properties the
// rebalance path depends on. Adding one shard to an N-shard ring must
// (1) move roughly K/(N+1) of K analysts — not the ~K(N/(N+1)) a mod-N
// scheme reshuffles — and (2) move them ONLY onto the new shard: an
// analyst whose owner survives the change keeps it, exactly. Property
// (2) is what bounds a scale-out's migration traffic to the new
// shard's share.
func TestRingStability(t *testing.T) {
	const k = 1000
	keys := testKeys(k)
	for n := 1; n <= 7; n++ {
		n := n
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			before := mustRing(t, shardIDs(n))
			after := mustRing(t, shardIDs(n+1))
			newID := fmt.Sprintf("shard-%d", n)
			moved := 0
			for _, key := range keys {
				was, is := before.Owner(key), after.Owner(key)
				if was == is {
					continue
				}
				moved++
				if is != newID {
					t.Fatalf("key %q moved %s -> %s, not onto the new shard %s", key, was, is, newID)
				}
			}
			// The expected share is k/(n+1); vnode placement makes the
			// realized count vary around it. 2x is far below the ~k·n/(n+1)
			// a naive mod-N reshuffle would move.
			bound := 2 * ((k + n) / (n + 1))
			if moved > bound {
				t.Fatalf("adding shard %d moved %d of %d keys (> bound %d)", n, moved, k, bound)
			}
			if moved == 0 {
				t.Fatalf("adding a shard moved no keys — the new shard would stay empty")
			}
		})
	}
}

// TestRingOrderIndependence: the ring must be a pure function of the
// shard SET — the descriptor order, map iteration order or any other
// enumeration order the caller happens to use must not matter, or
// router and node could disagree on placement.
func TestRingOrderIndependence(t *testing.T) {
	keys := testKeys(200)
	base := mustRing(t, shardIDs(5))
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		ids := shardIDs(5)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		r := mustRing(t, ids)
		for _, key := range keys {
			if got, want := r.Owner(key), base.Owner(key); got != want {
				t.Fatalf("shuffled build %d: owner(%q) = %s, want %s", trial, key, got, want)
			}
		}
	}
}

// TestRingConcurrentOwners: Owner is read-only and must return
// identical placements from any number of goroutines (the router calls
// it on every request).
func TestRingConcurrentOwners(t *testing.T) {
	r := mustRing(t, shardIDs(4))
	keys := testKeys(500)
	want := make([]string, len(keys))
	for i, key := range keys {
		want[i] = r.Owner(key)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, key := range keys {
				if got := r.Owner(key); got != want[i] {
					t.Errorf("concurrent owner(%q) = %s, want %s", key, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRingSpread: every shard owns a share; no shard is starved or
// overloaded beyond 3x the fair share at 1000 keys and 128 vnodes.
func TestRingSpread(t *testing.T) {
	const k, n = 1000, 5
	r := mustRing(t, shardIDs(n))
	spread := r.Spread(testKeys(k))
	if len(spread) != n {
		t.Fatalf("spread has %d shards, want %d", len(spread), n)
	}
	total := 0
	for id, c := range spread {
		total += c
		if c == 0 {
			t.Errorf("shard %s owns no keys", id)
		}
		if c > 3*k/n {
			t.Errorf("shard %s owns %d of %d keys (> 3x fair share)", id, c, k)
		}
	}
	if total != k {
		t.Fatalf("spread sums to %d, want %d", total, k)
	}
}

// TestRingRejectsBadInput covers the constructor's error paths.
func TestRingRejectsBadInput(t *testing.T) {
	if _, err := NewRing(nil, DefaultVNodes, 0); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, DefaultVNodes, 0); err == nil {
		t.Error("duplicate shard IDs accepted")
	}
	if _, err := NewRing([]string{"a", ""}, DefaultVNodes, 0); err == nil {
		t.Error("empty shard ID accepted")
	}
}

// TestRingSeedChangesPlacement: different seeds yield different rings,
// so a descriptor's seed is part of the placement contract.
func TestRingSeedChangesPlacement(t *testing.T) {
	a, err := NewRing(shardIDs(4), DefaultVNodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(shardIDs(4), DefaultVNodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	keys := testKeys(500)
	for _, key := range keys {
		if a.Owner(key) == b.Owner(key) {
			same++
		}
	}
	if same == len(keys) {
		t.Error("seed change left every placement identical")
	}
}

// TestRingSortedShards: Shards() reports the membership sorted, the
// order metric registration and status endpoints rely on.
func TestRingSortedShards(t *testing.T) {
	r := mustRing(t, []string{"c", "a", "b"})
	ids := r.Shards()
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("Shards() not sorted: %v", ids)
	}
}
