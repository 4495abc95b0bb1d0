package nice

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestPearsonSymmetry: correlation is symmetric in its arguments, and the
// circular-shift correlation at offset k of (a, b) equals the correlation
// at offset n−k of (b, a).
func TestPearsonSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(64)
		a := NewSeries(t0, time.Minute, n)
		b := NewSeries(t0, time.Minute, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				a.Mark(t0.Add(time.Duration(i) * time.Minute))
			}
			if rng.Intn(3) == 0 {
				b.Mark(t0.Add(time.Duration(i) * time.Minute))
			}
		}
		rab, errAB := pearson(a, b)
		rba, errBA := pearson(b, a)
		if (errAB == nil) != (errBA == nil) {
			return false
		}
		if errAB != nil {
			return true // degenerate both ways: fine
		}
		return math.Abs(rab-rba) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPearsonBounds: the coefficient always lies in [-1, 1].
func TestPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(100)
		a := NewSeries(t0, time.Minute, n)
		b := NewSeries(t0, time.Minute, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Mark(t0.Add(time.Duration(i) * time.Minute))
			}
			if rng.Intn(4) == 0 {
				b.Mark(t0.Add(time.Duration(i) * time.Minute))
			}
		}
		r, err := pearson(a, b)
		if err != nil {
			return true
		}
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
