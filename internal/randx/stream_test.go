package randx

import (
	"math"
	"math/rand"
	"testing"
)

// Streams must be pure functions of (seed, index): the same pair yields
// the same sequence no matter what any other stream consumed.
func TestStreamDeterministic(t *testing.T) {
	a := Stream(42, 7)
	b := Stream(42, 7)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestStreamIndependenceFromConsumption(t *testing.T) {
	// Reference: stream 5, untouched neighbours.
	want := make([]float64, 20)
	ref := Stream(99, 5)
	for i := range want {
		want[i] = ref.Float64()
	}
	// Same stream after heavy consumption of streams 0..4.
	for idx := uint64(0); idx < 5; idx++ {
		s := Stream(99, idx)
		for i := 0; i < 1000; i++ {
			s.Float64()
		}
	}
	got := Stream(99, 5)
	for i := range want {
		if v := got.Float64(); v != want[i] {
			t.Fatalf("draw %d changed after sibling consumption: %g != %g", i, v, want[i])
		}
	}
}

// Reseed must rebase an existing source onto exactly the sequence a fresh
// stream produces — the zero-allocation per-sample path of the engine.
func TestReseedMatchesFreshStream(t *testing.T) {
	src := NewSplitMix(7, 0)
	rng := rand.New(src)
	for idx := uint64(0); idx < 10; idx++ {
		src.Reseed(7, idx)
		fresh := Stream(7, idx)
		for i := 0; i < 10; i++ {
			if a, b := rng.Float64(), fresh.Float64(); a != b {
				t.Fatalf("stream %d draw %d: reseeded %g != fresh %g", idx, i, a, b)
			}
		}
	}
}

// rand.Rand must not buffer across Reseed for the draw kinds the auditors
// use (Float64, Intn, NormFloat64, Perm): after a Reseed mid-sequence the
// output must still equal a fresh stream's.
func TestReseedMidSequenceNoHiddenBuffer(t *testing.T) {
	src := NewSplitMix(3, 0)
	rng := rand.New(src)
	rng.Float64()
	rng.Intn(17)
	rng.NormFloat64()
	rng.Perm(5)
	src.Reseed(3, 9)
	fresh := Stream(3, 9)
	if a, b := rng.NormFloat64(), fresh.NormFloat64(); a != b {
		t.Fatalf("NormFloat64 after mid-sequence reseed: %g != %g", a, b)
	}
	if a, b := rng.Intn(1000), fresh.Intn(1000); a != b {
		t.Fatalf("Intn after mid-sequence reseed: %d != %d", a, b)
	}
}

func TestAdjacentStreamsDiffer(t *testing.T) {
	// Adjacent indices and adjacent seeds must land far apart; a weak mix
	// would correlate them.
	seen := map[uint64]bool{}
	for idx := uint64(0); idx < 100; idx++ {
		v := NewSplitMix(12345, idx).Uint64()
		if seen[v] {
			t.Fatalf("stream %d repeats an earlier first draw", idx)
		}
		seen[v] = true
	}
	for seed := int64(0); seed < 100; seed++ {
		v := NewSplitMix(seed, 0).Uint64()
		if seen[v] {
			t.Fatalf("seed %d collides with an earlier stream", seed)
		}
		seen[v] = true
	}
}

func TestDeriveSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for i := uint64(0); i < 1000; i++ {
		s := DeriveSeed(12345, i)
		if seen[s] {
			t.Fatalf("DeriveSeed collision at index %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("distinct base seeds must derive distinct children")
	}
}

// TestDirectDrawsMatchRand: a SplitMix read directly draws what
// rand.New over the same source draws, bit for bit: Modulus.Draw is
// Intn(k) for every k the chain can ask for, including k = 2³⁰+1, where
// Intn rejects about half its draws, Float64 is Float64, including its
// redraw when Int63 rounds up to 1, and Cumulative.IndexFrom is Index.
func TestDirectDrawsMatchRand(t *testing.T) {
	const draws = 100_000
	for _, k := range []int{1, 2, 3, 5, 7, 64, 1000, 1<<30 + 1, 1<<31 - 1} {
		direct, via := NewSplitMix(11, uint64(k)), NewSplitMix(11, uint64(k))
		rng := rand.New(via)
		m := NewModulus(k)
		for d := 0; d < draws; d++ {
			if got, want := m.Draw(direct), rng.Intn(k); got != want {
				t.Fatalf("k=%d draw %d: Modulus.Draw %d, Intn %d", k, d, got, want)
			}
		}
		if direct.state != via.state {
			t.Fatalf("k=%d: the direct draws consumed a different number of values", k)
		}
		// The largest value Int31n accepts and the smallest it rejects,
		// 2³¹−1−(2³¹ mod k) and one more, are too rare to meet by chance:
		// start from the states whose next Int31 is each.
		for _, v := range []uint64{1<<31 - 1 - (1<<31)%uint64(k), 1<<31 - (1<<31)%uint64(k)} {
			if v >= 1<<31 {
				continue
			}
			state := unmix64(v<<33|0x5bd1e995) - splitmixGamma
			direct, via := &SplitMix{state: state}, &SplitMix{state: state}
			if got, want := m.Draw(direct), rand.New(via).Intn(k); got != want || direct.state != via.state {
				t.Fatalf("k=%d, first Int31 %d: Modulus.Draw %d, Intn %d", k, v, got, want)
			}
		}
	}
	direct, via := NewSplitMix(12, 0), NewSplitMix(12, 0)
	rng := rand.New(via)
	for d := 0; d < draws; d++ {
		if got, want := direct.Float64(), rng.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: Float64 %v, rand's %v", d, got, want)
		}
	}
	// The state whose next Uint64 is 2⁶⁴−1: Int63 = 2⁶³−1, which rounds to
	// 1 as a float64, so both redraw.
	top := unmix64(math.MaxUint64) - splitmixGamma
	direct, via = &SplitMix{state: top}, &SplitMix{state: top}
	if got, want := direct.Float64(), rand.New(via).Float64(); math.Float64bits(got) != math.Float64bits(want) || direct.state != via.state || direct.state != top+splitmixGamma+splitmixGamma {
		t.Fatalf("redraw: Float64 %v, rand's %v", got, want)
	}
	var c Cumulative
	gen := New(13)
	for v := 0; v < 200; v++ {
		w := make([]float64, 1+gen.Intn(130))
		for i := range w {
			w[i] = gen.Float64()
		}
		c.Set(w)
		direct, via := NewSplitMix(14, uint64(v)), NewSplitMix(14, uint64(v))
		rng := rand.New(via)
		for d := 0; d < draws/100; d++ {
			if got, want := c.IndexFrom(direct), c.Index(rng); got != want {
				t.Fatalf("vector %d draw %d: IndexFrom %d, Index %d", v, d, got, want)
			}
		}
	}
}

// unmix64 inverts mix64: each xorshift is undone by re-applying it until
// the shifts pass 64 bits, each multiplication by the odd constant's
// inverse modulo 2⁶⁴.
func unmix64(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for k := s; k < 64; k += s {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(m uint64) uint64 {
		inv := m // correct to 3 bits; each Newton step doubles them
		for k := 0; k < 5; k++ {
			inv *= 2 - m*inv
		}
		return inv
	}
	z = unshift(z, 31) * inverse(mixMul2)
	z = unshift(z, 27) * inverse(mixMul1)
	return unshift(z, 30)
}
