package randx

import (
	"math/bits"
	"math/rand"
)

// Counter-based random streams for parallel Monte Carlo.
//
// The simulatable auditors fan a decision's sample budget across a worker
// pool (internal/mcpar). Determinism at any worker count requires that
// sample i consume randomness from a stream that depends only on (seed, i)
// — never on which worker ran it or on what other samples consumed. The
// construction is splitmix64: a Weyl-sequence state advanced by the golden
// gamma and scrambled by a two-round avalanche finalizer. Distinct stream
// indices land the state in far-apart positions of the Weyl orbit, so the
// streams are independent for all practical purposes (the finalizer's
// avalanche breaks the arithmetic correlation between nearby indices).
//
// SplitMix implements rand.Source64, so a per-worker rand.Rand can be
// rebased onto a new stream between samples with Reseed — no allocation on
// the per-sample path. rand.Rand keeps no hidden buffer for Int63/Uint64/
// Float64/Intn/Perm/Shuffle/NormFloat64 (only Read buffers), so reseeding
// the source between samples is sound for everything the auditors draw.

const (
	splitmixGamma = 0x9E3779B97F4A7C15 // 2^64 / φ, the golden gamma
	mixMul1       = 0xBF58476D1CE4E5B9
	mixMul2       = 0x94D049BB133111EB
)

// mix64 is the splitmix64 finalizer: a bijective avalanche scramble.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mixMul1
	z = (z ^ (z >> 27)) * mixMul2
	return z ^ (z >> 31)
}

// streamState derives the initial splitmix state of stream index from a
// base seed: two finalizer rounds over the seed offset by the index's
// position in the Weyl orbit.
func streamState(seed int64, index uint64) uint64 {
	return mix64(mix64(uint64(seed) + splitmixGamma*(index+1)))
}

// SplitMix is a splitmix64 generator implementing rand.Source64.
type SplitMix struct {
	state uint64
}

// NewSplitMix returns a generator on stream index of the given seed.
func NewSplitMix(seed int64, index uint64) *SplitMix {
	return &SplitMix{state: streamState(seed, index)}
}

// Reseed rebases the generator onto stream index of seed. It is the
// zero-allocation path workers use between samples.
func (s *SplitMix) Reseed(seed int64, index uint64) {
	s.state = streamState(seed, index)
}

// Seed implements rand.Source (stream 0 of the given seed).
func (s *SplitMix) Seed(seed int64) { s.state = streamState(seed, 0) }

// Uint64 implements rand.Source64.
func (s *SplitMix) Uint64() uint64 {
	s.state += splitmixGamma
	return mix64(s.state)
}

// Int63 implements rand.Source.
func (s *SplitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

// Float64 returns what rand.New(s).Float64() would: Int63/2⁶³, drawn
// again in the rare case that the quotient rounds up to 1. Hot loops
// call it to skip rand.Rand's interface call.
func (s *SplitMix) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Modulus draws from a SplitMix what rand.New(s).Intn(n) would, for a
// fixed 0 < n < 2³¹, without a division. Intn takes v = Int63>>32 (the
// top 31 bits of Uint64), redraws while v exceeds the rejection bound
// 2³¹−1−(2³¹ mod n) and returns v mod n (a power-of-two n masks, but its
// bound is 2³¹−1 and v&(n−1) = v mod n, so one rule covers both). The
// bound is computed once here, and v mod n is the multiply-high of
// Lemire, Kaser and Kurz ("Faster remainder by direct computation",
// 2019): with c = ⌈2⁶⁴/n⌉, v mod n = ⌊((c·v) mod 2⁶⁴)·n / 2⁶⁴⌋, exact for
// every 32-bit v and n.
type Modulus struct {
	n, c uint64
	max  uint32
}

// NewModulus returns the Modulus of n. It panics unless 0 < n < 2³¹, the
// range in which Intn draws through Int31n.
func NewModulus(n int) Modulus {
	if n <= 0 || n > 1<<31-1 {
		panic("randx: Modulus needs 0 < n < 2^31")
	}
	m := Modulus{n: uint64(n), max: uint32(1<<31 - 1 - (1<<31)%uint32(n))}
	if n > 1 {
		// ⌈2⁶⁴/n⌉; for n = 1 it is 2⁶⁴, which wraps to 0 and still gives
		// v mod 1 = 0.
		m.c = ^uint64(0)/m.n + 1
	}
	return m
}

// N returns the modulus n.
func (m Modulus) N() int { return int(m.n) }

// Draw returns the next rand.New(s).Intn(n) of s.
func (m Modulus) Draw(s *SplitMix) int {
	v := uint32(s.Uint64() >> 33)
	for v > m.max {
		v = uint32(s.Uint64() >> 33)
	}
	hi, _ := bits.Mul64(m.c*uint64(v), m.n)
	return int(hi)
}

// Stream returns a rand.Rand on stream index of seed. Each (seed, index)
// pair yields an independent, reproducible sequence regardless of what any
// other stream consumed — the property the parallel Monte Carlo engine
// needs for worker-count-invariant decisions.
func Stream(seed int64, index uint64) *rand.Rand {
	return rand.New(NewSplitMix(seed, index))
}

// DeriveSeed folds an index into a seed, yielding a decorrelated child
// seed. Auditors use it to give every decision its own base seed (keyed by
// the decision ordinal) so Monte Carlo samples are fresh per decision yet
// bit-reproducible across runs and worker counts.
func DeriveSeed(seed int64, index uint64) int64 {
	return int64(streamState(seed, index))
}
