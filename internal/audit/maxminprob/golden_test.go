package maxminprob

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/coloring"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// goldenPosteriorDigest is the sha256 chain over every step of
// TestGoldenPosteriorChain. It pins the posterior machinery bit for bit —
// palettes, witness probabilities, element ranges and sampled datasets —
// which TestMCDecisionFixtures cannot: a perturbed posterior seldom flips
// an answer/deny verdict.
const goldenPosteriorDigest = "a202798b0e05c8d6cb8292e9f4c07360cc4869833d6824915fa7473c50eccae1"

// TestGoldenPosteriorChain plays a seeded sequence of max and min
// Decide+Record steps at n=300 with the auditserver's prob parameters and
// the auditor's default Monte Carlo budget. The query sets cycle through
// wide random sets, contiguous windows of 60–149 rows and small sets of
// 5–40 rows, so the synopsis grows to several equality predicates and
// the sequence both answers and denies. After each step it hashes into
// one chain: the decision; every node's palette and the float bits of
// every witnessProbs entry of the current synopsis; every element's
// range; and one dataset sampled through the coloring chain.
func TestGoldenPosteriorChain(t *testing.T) {
	const (
		n     = 300
		steps = 48
	)
	rng := randx.New(21)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	a, err := New(n, Params{Game: mcpar.Game{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, Workers: 1, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	limit := a.params.enumerateLimit()

	h := sha256.New()
	var answered, denied, exact, chain int
	for step := 0; step < steps; step++ {
		kind := query.Max
		if step%2 == 1 {
			kind = query.Min
		}
		var set []int
		switch step % 4 {
		case 3:
			set = randx.SubsetSizeBetween(rng, n, 5, 40)
		case 1, 2:
			set = randx.Range(rng, n, 60+rng.Intn(90))
		default:
			set = randx.SubsetSizeBetween(rng, n, 240, 300)
		}
		q := query.New(kind, set...)
		d, err := a.Decide(q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if d == audit.Answer {
			a.Record(q, q.Eval(xs))
			answered++
		} else {
			denied++
		}
		writeInt(h, int64(d))

		g, probs, err := witnessProbs(a.syn, a.params, randx.New(int64(1000+step)))
		if err != nil {
			t.Fatalf("step %d: witnessProbs: %v", step, err)
		}
		if !g.MeetsLemma2() || g.SpaceSize(limit) < limit {
			exact++
		} else {
			chain++
		}
		for v, node := range g.Nodes {
			for ci, col := range node.Colors {
				writeInt(h, int64(col))
				writeFloat(h, probs[v][ci])
			}
		}
		for i := 0; i < n; i++ {
			r := a.syn.RangeOf(i)
			writeFloat(h, r.Lo)
			writeFloat(h, r.Hi)
			writeBool(h, r.LoStrict)
			writeBool(h, r.HiStrict)
		}
		srng := randx.New(int64(2000 + step))
		s, err := coloring.NewSampler(g, srng)
		if err != nil {
			t.Fatalf("step %d: sampler: %v", step, err)
		}
		s.Mix(3)
		for _, x := range s.SampleDataset(srng) {
			writeFloat(h, x)
		}
	}
	if answered < 10 || denied < 10 {
		t.Fatalf("sequence answered %d and denied %d steps, want at least 10 of each", answered, denied)
	}
	if exact == 0 || chain == 0 {
		t.Fatalf("witnessProbs took the exact branch %d times and the chain %d times, want both", exact, chain)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPosteriorDigest {
		t.Fatalf("posterior chain digest %s, want %s (answered %d, denied %d, exact %d, chain %d)",
			got, goldenPosteriorDigest, answered, denied, exact, chain)
	}
}

func writeInt(h hash.Hash, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

func writeFloat(h hash.Hash, v float64) { writeInt(h, int64(math.Float64bits(v))) }

func writeBool(h hash.Hash, v bool) {
	if v {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}
