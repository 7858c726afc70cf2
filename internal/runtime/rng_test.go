package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refSource is the runtime's RNG source as it was before countingSource
// held the stream itself: math/rand's own source behind a draw counter.
// It is the oracle countingSource must match value for value and draw for
// draw.
type refSource struct {
	src   rand.Source64
	draws uint64
}

func newRefSource(seed int64) *refSource {
	return &refSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *refSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *refSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *refSource) Seed(seed int64) {
	c.draws = 0
	c.src.Seed(seed)
}

// int31n is (*rand.Rand).Int31n(n) on countingSource, draw for draw, in
// the steps shuffleMachineOrder takes inline, through the same
// redrawAbove. The tests call it at bounds where rejection is common,
// which a heartbeat pass of at most a few thousand machines almost never
// reaches.
func (c *countingSource) int31n(n int32) int32 {
	v := int31(c.Uint64())
	if v > math.MaxInt32-n {
		v = c.redrawAbove(v, n)
	}
	return v % n
}

// rngTestSeeds covers zero, negative and extreme seeds: math/rand reduces
// a seed modulo 2^31-1 and maps 0 to a fixed substitute, so these take
// different paths through its seeding.
var rngTestSeeds = []int64{0, 1, -1, 7, 42, 1<<40 + 3, math.MinInt64, math.MaxInt64}

// driveRand runs a fixed mix of rand.Rand calls that reach the source
// through Int63 and Uint64, and returns every result as a uint64.
func driveRand(r *rand.Rand) []uint64 {
	var out []uint64
	for k := 1; k <= 2*rngLen; k++ {
		out = append(out,
			math.Float64bits(r.Float64()),
			uint64(r.Intn(k)),
			uint64(r.Int31n(int32(k)<<20+1)),
			r.Uint64())
		if k%100 == 0 {
			for _, v := range r.Perm(k / 10) {
				out = append(out, uint64(v))
			}
		}
	}
	return out
}

func TestCountingSourceMatchesMathRand(t *testing.T) {
	// Bounds from never-rejecting to rejecting about half the draws.
	bounds := []int32{1, 3, 607, 1 << 20, 1<<30 + 1, 3 << 29}
	for _, seed := range rngTestSeeds {
		c, ref := newCountingSource(seed), newRefSource(seed)
		oracle := rand.New(ref)
		// Interleaved reads over six ring lengths: every read kind meets
		// the refill.
		for k := 0; k < 6*rngLen; k++ {
			var got, want uint64
			switch k % 3 {
			case 0:
				got, want = c.Uint64(), ref.Uint64()
			case 1:
				got, want = uint64(c.Int63()), uint64(ref.Int63())
			case 2:
				n := bounds[k/3%len(bounds)]
				got, want = uint64(c.int31n(n)), uint64(oracle.Int31n(n))
			}
			if got != want || c.draws != ref.draws {
				t.Fatalf("seed %d read %d: got %d after %d draws, math/rand %d after %d",
					seed, k, got, c.draws, want, ref.draws)
			}
		}

		// Seed restarts the stream mid-ring.
		c.Seed(seed ^ 0x5eed)
		ref = newRefSource(seed ^ 0x5eed)
		for k := 0; k < 2*rngLen; k++ {
			if got, want := c.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d reseeded, read %d: got %d, math/rand %d", seed, k, got, want)
			}
		}
		if c.draws != ref.draws {
			t.Fatalf("seed %d reseeded: %d draws, math/rand %d", seed, c.draws, ref.draws)
		}

		// rand.Rand on countingSource is rand.Rand on math/rand's source.
		c, ref = newCountingSource(seed), newRefSource(seed)
		got, want := driveRand(rand.New(c)), driveRand(rand.New(rand.NewSource(seed)))
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: rand.Rand over countingSource differs from rand.New(rand.NewSource(seed))", seed)
		}
		driveRand(rand.New(ref))
		if c.draws != ref.draws {
			t.Fatalf("seed %d: rand.Rand took %d draws from countingSource, %d from math/rand", seed, c.draws, ref.draws)
		}
	}
}

// fuzzBounds are the int31n bounds a fuzz op can pick: small, large,
// powers of two, and bounds that reject up to half the draws.
var fuzzBounds = [16]int32{
	1, 2, 3, 5, 7, 100, rngLen, 1 << 16,
	1<<20 + 1, 1 << 30, 1<<30 + 1, 3 << 29, 1<<31/3*2 + 1, math.MaxInt32 - 1, math.MaxInt32, 1<<30 - 1,
}

// FuzzCountingSourceMatchesMathRand runs an arbitrary sequence of reads
// against countingSource and the refSource oracle. Each op byte's low two
// bits pick the read — Uint64, Int63, int31n on a fuzzBounds entry, or a
// heartbeat shuffle of 1..631 machines, long enough to cross a refill at
// any offset — and its high six bits pick the bound or the size.
func FuzzCountingSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3})
	f.Add(int64(0), make([]byte, 2*rngLen))
	f.Add(int64(-1), []byte{255, 254, 253, 252, 43, 47, 251, 2, 6, 42})
	f.Add(int64(math.MinInt64), []byte{0xfb, 0x2a, 0x29, 0xff, 0xfb, 0x2a, 0x29, 0xff, 0x03, 0x2a})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rt := &runtime{rngSrc: newCountingSource(seed)}
		ref := newRefSource(seed)
		oracle := rand.New(ref)
		for i, op := range ops {
			arg := int(op >> 2)
			var got, want uint64
			switch op & 3 {
			case 0:
				got, want = rt.rngSrc.Uint64(), ref.Uint64()
			case 1:
				got, want = uint64(rt.rngSrc.Int63()), uint64(ref.Int63())
			case 2:
				n := fuzzBounds[arg%len(fuzzBounds)]
				got, want = uint64(rt.rngSrc.int31n(n)), uint64(oracle.Int31n(n))
			case 3:
				n := arg*10 + 1
				rt.machineOrder, rt.machineAt = identityOrder(n), identityOrder(n)
				checkShuffle(t, rt, ref, oracle, identityOrder(n), fmt.Sprintf("op %d: shuffle of %d", i, n))
			}
			if got != want || rt.rngSrc.draws != ref.draws {
				t.Fatalf("op %d (%#x): got %d after %d draws, math/rand %d after %d",
					i, op, got, rt.rngSrc.draws, want, ref.draws)
			}
		}
		if got, want := rt.rngSrc.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("next read after %d ops: got %d, math/rand %d", len(ops), got, want)
		}
	})
}
