package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"queryaudit/internal/query"
)

// chainFieldWise is the chain encoding written field by field into the
// hash, the way the digest was first defined. ChainDecision and
// ChainUpdate must stay bit-identical to it: persisted journals and
// replicas compare these digests.
func chainFieldWise(prev Digest, update bool, index int, ev DecisionEvent) Digest {
	h := sha256.New()
	h.Write(prev[:])
	var buf [8]byte
	word := func(x uint64) {
		binary.BigEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	if update {
		h.Write([]byte{chainTagUpdate})
		word(uint64(index))
	} else {
		h.Write([]byte{chainTagDecision, byte(ev.Outcome)})
		word(uint64(ev.Query.Kind))
		word(uint64(len(ev.Query.Set)))
		for _, i := range ev.Query.Set {
			word(uint64(i))
		}
		word(math.Float64bits(ev.Answer))
	}
	var out Digest
	h.Sum(out[:0])
	return out
}

func TestChainMatchesFieldWiseEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var got, want Digest
	for step := 0; step < 400; step++ {
		if rng.Intn(5) == 0 {
			i := rng.Intn(1 << 20)
			got, want = ChainUpdate(got, i), chainFieldWise(want, true, i, DecisionEvent{})
		} else {
			set := make([]int, 1+rng.Intn(3000))
			for k := range set {
				set[k] = rng.Intn(5000)
			}
			ev := DecisionEvent{
				Query:   query.New(query.Kind(rng.Intn(5)), set...),
				Outcome: Outcome(rng.Intn(3)),
				Answer:  rng.NormFloat64(),
			}
			got, want = ChainDecision(got, ev), chainFieldWise(want, false, 0, ev)
		}
		if got != want {
			t.Fatalf("step %d: chain %s, field-wise encoding %s", step, got.Hex(), want.Hex())
		}
	}
}

// TestChainDecisionAllocs: hashing a decision allocates nothing, however
// large its set.
func TestChainDecisionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	set := make([]int, 3000)
	for i := range set {
		set[i] = i
	}
	ev := DecisionEvent{Query: query.New(query.Sum, set...), Answer: 1}
	var d Digest
	ChainDecision(d, ev) // warm the buffer pool
	if n := testing.AllocsPerRun(100, func() { d = ChainDecision(d, ev) }); n != 0 {
		t.Fatalf("ChainDecision allocated %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { d = ChainUpdate(d, 7) }); n != 0 {
		t.Fatalf("ChainUpdate allocated %v times per call, want 0", n)
	}
}
