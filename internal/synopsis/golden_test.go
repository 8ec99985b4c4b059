package synopsis

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"testing"

	"queryaudit/internal/query"
)

// goldenFoldDigest is the sha256 chain over every step of
// TestGoldenFoldChain. It pins the exact folding behaviour — predicate
// IDs, set order, values and operators — so a rewrite of the fold must
// reproduce the synopsis bit for bit, not only decide alike.
const goldenFoldDigest = "2ec89c7582a85c280670f1b7f9d2ce1f8fa5c6cc47465cae337e8c7c644d661a"

// foldSnapshot returns the JSON image of b, the byte string the chain
// hashes and the rollback checks compare.
func foldSnapshot(t *testing.T, b *MaxMin) []byte {
	t.Helper()
	raw, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenFoldChain replays a seeded sequence of AddMax, AddMin and
// Update at n=3000 over wide, overlapping query sets and hashes the
// Snapshot JSON after each step into one sha256 chain. Answers are the
// true extreme of the set, a bound already in the synopsis (which drives
// the equality-merge and max/min shared-value paths) or a random value,
// so many folds are inconsistent; each of those must leave the snapshot
// byte-identical. Every fold is also tried first as a trial, Fold then
// Rollback, which must leave the snapshot byte-identical too.
func TestGoldenFoldChain(t *testing.T) {
	const (
		n     = 3000
		steps = 400
	)
	rng := rand.New(rand.NewSource(13))
	xs := make([]float64, n)
	used := make(map[float64]bool, n)
	for i, v := range rng.Perm(n) {
		xs[i] = float64(v)
		used[xs[i]] = true
	}
	b := NewMaxMin(n, math.Inf(-1), math.Inf(1))

	h := sha256.New()
	prev := foldSnapshot(t, b)
	var accepted, rejected, updates int
	for step := 0; step < steps; step++ {
		r := rng.Float64()
		if r >= 0.85 {
			i := rng.Intn(n)
			v := float64(rng.Intn(4 * n))
			for used[v] {
				v = float64(rng.Intn(4 * n))
			}
			delete(used, xs[i])
			xs[i], used[v] = v, true
			b.Update(i)
			updates++
			writeStep(h, 'u', i, 0, true)
		} else {
			kind := query.Max
			if r >= 0.425 {
				kind = query.Min
			}
			q := wideSet(rng, n)
			a := foldAnswer(rng, b, kind, q, xs)
			werr := b.Fold(kind, q, a)
			if werr == nil {
				b.Rollback()
			}
			if got := foldSnapshot(t, b); !bytes.Equal(got, prev) {
				t.Fatalf("step %d: trial %v(|Q|=%d)=%g changed the snapshot", step, kind, len(q), a)
			}
			var err error
			if kind == query.Max {
				err = b.AddMax(q, a)
			} else {
				err = b.AddMin(q, a)
			}
			if err != nil {
				rejected++
				if got := foldSnapshot(t, b); !bytes.Equal(got, prev) {
					t.Fatalf("step %d: rejected %v(|Q|=%d)=%g changed the snapshot", step, kind, len(q), a)
				}
			} else {
				accepted++
			}
			if (werr == nil) != (err == nil) {
				t.Fatalf("step %d: trial fold returned %v, commit %v", step, werr, err)
			}
			writeStep(h, byte(kind), len(q), a, err == nil)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		prev = foldSnapshot(t, b)
		h.Write(prev)
	}
	if accepted < 40 || rejected < 20 || updates < 10 {
		t.Fatalf("sequence too one-sided: %d accepted, %d rejected, %d updates", accepted, rejected, updates)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFoldDigest {
		t.Fatalf("fold chain digest %s, want %s (%d accepted, %d rejected, %d updates)",
			got, goldenFoldDigest, accepted, rejected, updates)
	}
}

// writeStep hashes one step's descriptor ahead of its snapshot.
func writeStep(h io.Writer, op byte, x int, a float64, ok bool) {
	var buf [18]byte
	buf[0] = op
	binary.LittleEndian.PutUint64(buf[1:], uint64(x))
	binary.LittleEndian.PutUint64(buf[9:], math.Float64bits(a))
	if ok {
		buf[17] = 1
	}
	h.Write(buf[:])
}

// wideSet draws a window of 300–1500 rows starting anywhere in 0..n-1
// (wrapping), thinned at a random keep rate of 70–100%, so successive
// sets overlap heavily without coinciding. One set in eight is a
// window of 1–6 rows instead, which shrinks equality predicates to
// singletons and so reaches the pinning paths.
func wideSet(rng *rand.Rand, n int) query.Set {
	w := 300 + rng.Intn(1201)
	if rng.Intn(8) == 0 {
		w = 1 + rng.Intn(6)
	}
	lo := rng.Intn(n)
	keep := 0.7 + 0.3*rng.Float64()
	idx := make([]int, 0, w)
	for k := 0; k < w; k++ {
		if rng.Float64() < keep {
			idx = append(idx, (lo+k)%n)
		}
	}
	if len(idx) == 0 {
		idx = append(idx, lo)
	}
	return query.NewSet(idx...)
}

// foldAnswer picks the answer for a max or min fold over q: the true
// extreme (60%), a bound the synopsis already holds for an element of q
// on either side (25%), or a uniformly random value (15%).
func foldAnswer(rng *rand.Rand, b *MaxMin, kind query.Kind, q query.Set, xs []float64) float64 {
	r := rng.Float64()
	switch {
	case r < 0.6:
		return query.Query{Kind: kind, Set: q}.Eval(xs)
	case r < 0.85:
		i := q[rng.Intn(len(q))]
		if rng.Intn(2) == 0 {
			if v, ok := b.MaxValueOf(i); ok {
				return v
			}
		} else if v, ok := b.MinValueOf(i); ok {
			return v
		}
		return query.Query{Kind: kind, Set: q}.Eval(xs)
	default:
		return float64(rng.Intn(len(xs)))
	}
}
