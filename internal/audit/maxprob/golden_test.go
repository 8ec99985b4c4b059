package maxprob

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// goldenDecisionDigest is the sha256 chain over every step of
// TestGoldenDecisionChain. It pins the sample loop's decisions and the
// trail they leave, so a rewrite of how a sample folds its answer into
// the synopsis must decide bit for bit alike.
const goldenDecisionDigest = "1bec28e92164bef98613953baefb1e1bdd6373906e805504f05c8b0a981c44f4"

// TestGoldenDecisionChain plays a seeded sequence of Decide+Record steps
// at n=60 over max queries of 1–60 rows, at one and at four workers.
// After each step it hashes the decision and the synopsis Snapshot JSON
// into one chain. Both worker counts must reproduce the pinned digest.
func TestGoldenDecisionChain(t *testing.T) {
	const (
		n     = 60
		steps = 40
	)
	for _, workers := range []int{1, 4} {
		rng := randx.New(31)
		xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
		a, err := New(n, Params{Game: mcpar.Game{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, Workers: workers, Seed: 9}, Samples: 256})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var answered, denied int
		for step := 0; step < steps; step++ {
			q := query.New(query.Max, randx.SubsetSizeBetween(rng, n, 1, n)...)
			d, err := a.Decide(q)
			if err != nil {
				t.Fatalf("workers=%d step %d: %v", workers, step, err)
			}
			if d == audit.Answer {
				a.Record(q, q.Eval(xs))
				answered++
			} else {
				denied++
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(d))
			h.Write(buf[:])
			raw, err := json.Marshal(a.syn.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			h.Write(raw)
		}
		if answered < 5 || denied < 5 {
			t.Fatalf("workers=%d: sequence answered %d and denied %d steps, want at least 5 of each", workers, answered, denied)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenDecisionDigest {
			t.Fatalf("workers=%d: decision chain digest %s, want %s (answered %d, denied %d)",
				workers, got, goldenDecisionDigest, answered, denied)
		}
	}
}
