package simnet

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// FuzzAppendFixed checks appendFixed against its oracle,
// strconv.AppendFloat(dst, v, 'f', prec, 64), byte for byte.
func FuzzAppendFixed(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-9, 0.0005, 0.005, 0.015, 0.05, 0.45, 0.5, 0.95, 0.9999,
		math.Nextafter(1, 0), 1, math.Nextafter(10, 0), 10, 9.95, 9.96, 99.95, 999.9995,
		2.675, 1.005, 123456.789, 1 << 52, math.Nextafter(1<<53, 0), 1 << 53, 1e15,
		math.Nextafter(1e15, 0), 1e300, -1.5, -0.004, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for k := 1; k <= 40; k++ { // ties at every precision
		seeds = append(seeds, float64(k)/2, float64(k)/4, float64(k)/8, float64(k)/16)
	}
	for _, v := range seeds {
		for prec := 0; prec <= 3; prec++ {
			f.Add(v, uint8(prec))
		}
	}
	f.Fuzz(func(t *testing.T, v float64, prec uint8) {
		checkFixed(t, v, int(prec%5))
	})
}

// TestAppendFixedSweep draws values from every range the corpus formats
// (percentages, milliseconds, kbit/s) and from every binary exponent.
func TestAppendFixedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		for _, v := range []float64{
			rng.Float64(), rng.Float64() * 5, rng.Float64() * 100, 8800 * 40 / (40 + rng.Float64()*100),
			float64(rng.Intn(100000)) / 1000, math.Float64frombits(rng.Uint64() &^ (1 << 63)),
			math.Ldexp(rng.Float64(), rng.Intn(120)-60),
		} {
			for prec := 0; prec <= 3; prec++ {
				checkFixed(t, v, prec)
			}
		}
	}
}

func checkFixed(t *testing.T, v float64, prec int) {
	t.Helper()
	want := strconv.AppendFloat([]byte("x,"), v, 'f', prec, 64)
	if got := appendFixed([]byte("x,"), v, prec); !bytes.Equal(got, want) {
		t.Fatalf("appendFixed(%b, %d) = %q, want %q", v, prec, got, want)
	}
}

// TestFeedAddStopsAtOffsetLimit fills the last chunk an offset can address
// and checks that the next line is refused rather than given an offset that
// wraps.
func TestFeedAddStopsAtOffsetLimit(t *testing.T) {
	f := &feed{chunks: make([][]byte, 1<<(32-chunkBits))}
	last := len(f.chunks) - 1
	f.chunks[last] = make([]byte, 1<<chunkBits-4, 1<<chunkBits)
	if !f.add(0, []byte("abc")) {
		t.Fatal("a line that fits the last chunk was refused")
	}
	if want := uint32(last<<chunkBits + 1<<chunkBits - 4); f.refs[0][0].off != want {
		t.Fatalf("offset %#x, want %#x", f.refs[0][0].off, want)
	}
	if f.add(0, []byte("x")) {
		t.Fatal("a line past the last addressable chunk was accepted")
	}
	if f.n != 1 || len(f.chunks) != 1<<(32-chunkBits) {
		t.Fatalf("refused line left %d lines, %d chunks", f.n, len(f.chunks))
	}
}
