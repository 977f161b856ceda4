package sig

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// float1Edges are the inputs where an exact one-decimal formatter can
// go wrong: signed zeros, NaN and infinities, exact binary halves
// (round half to even), values just either side of a half, subnormals
// and the neighbours of the 2^50 fast-path bound.
var float1Edges = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	0.25, -0.25, 0.75, -0.75, 2.25, 1.125, 0.05, -0.04, -0.05, 0.04999999999999999,
	-97.45, -97.5, -108, -140.96875, -3.55, 12.65, 4503599627370495.5,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1030,
	float1Exact, -float1Exact, math.Nextafter(float1Exact, 0), math.Nextafter(float1Exact, math.Inf(1)),
	math.Nextafter(-float1Exact, 0), 0x1p50 - 0.5, 0x1p49 + 0.25, math.MaxFloat64,
}

func checkFloat1(t *testing.T, v float64) {
	t.Helper()
	want := strconv.FormatFloat(v, 'f', 1, 64)
	if got := string(appendFloat1(nil, v)); got != want {
		t.Fatalf("appendFloat1(%b = %v) = %q, want %q", math.Float64bits(v), v, got, want)
	}
}

// TestAppendFloat1MatchesStrconv checks the exact formatter against
// strconv on the edge cases, on random bit patterns and on the
// RSRP/RSRQ range the emitter actually prints.
func TestAppendFloat1MatchesStrconv(t *testing.T) {
	for _, v := range float1Edges {
		checkFloat1(t, v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		checkFloat1(t, math.Float64frombits(rng.Uint64()))
		checkFloat1(t, -160+rng.Float64()*140)
		checkFloat1(t, float64(rng.Intn(2000000)-1000000)/20) // many exact halves
	}
}

// FuzzAppendFloat1 is the differential fuzzer for the exact formatter:
// any float64 bit pattern must print as strconv's 'f', 1 does.
func FuzzAppendFloat1(f *testing.F) {
	for _, v := range float1Edges {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFloat1(t, math.Float64frombits(bits))
	})
}
