package nice

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

var t0 = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

// ones counts the set bins of s.
func ones(s *Series) int {
	n := 0
	for _, b := range s.bits {
		if b {
			n++
		}
	}
	return n
}

// pearson is the correlation coefficient of two equal-length series at
// shift 0, the statistic the circular permutation test ranks.
func pearson(a, b *Series) (float64, error) { return pearsonShifted(a.bits, b.bits, 0) }

func TestSeriesSetAndClip(t *testing.T) {
	s := NewSeries(t0, time.Minute, 10)
	s.Set(t0.Add(2*time.Minute), t0.Add(4*time.Minute))
	if ones(s) != 3 || !s.At(2) || !s.At(4) || s.At(5) {
		t.Errorf("Set produced wrong bins: ones=%d", ones(s))
	}
	// Clipping at both ends.
	s2 := NewSeries(t0, time.Minute, 10)
	s2.Set(t0.Add(-5*time.Minute), t0.Add(time.Minute))
	if !s2.At(0) || !s2.At(1) || ones(s2) != 2 {
		t.Error("left clip wrong")
	}
	s2.Set(t0.Add(8*time.Minute), t0.Add(30*time.Minute))
	if !s2.At(9) || ones(s2) != 4 {
		t.Error("right clip wrong")
	}
	// Entirely outside.
	s3 := NewSeries(t0, time.Minute, 10)
	s3.Set(t0.Add(-10*time.Minute), t0.Add(-5*time.Minute))
	s3.Set(t0.Add(50*time.Minute), t0.Add(60*time.Minute))
	s3.Set(t0.Add(5*time.Minute), t0.Add(4*time.Minute)) // inverted
	if ones(s3) != 0 {
		t.Error("out-of-range Set leaked bins")
	}
	s3.Mark(t0.Add(7 * time.Minute))
	if !s3.At(7) || ones(s3) != 1 {
		t.Error("Mark wrong")
	}
}

func TestSmooth(t *testing.T) {
	s := NewSeries(t0, time.Minute, 10)
	s.Mark(t0)
	s.Mark(t0.Add(5 * time.Minute))
	sm := s.Smooth(1)
	if ones(sm) != 5 { // bins 0,1 and 4,5,6
		t.Errorf("smooth ones = %d, want 5", ones(sm))
	}
	if ones(s) != 2 {
		t.Error("Smooth mutated receiver")
	}
}

func TestFromInstances(t *testing.T) {
	ins := []*event.Instance{
		{Name: "e", Start: t0, End: t0.Add(time.Minute), Loc: locus.At(locus.Router, "r")},
		{Name: "e", Start: t0.Add(30 * time.Minute), End: t0.Add(30 * time.Minute)},
	}
	s := FromInstances(ins, t0, time.Minute, 60)
	if !s.At(0) || !s.At(1) || !s.At(30) || ones(s) != 3 {
		t.Errorf("FromInstances ones = %d", ones(s))
	}
}

func TestPearsonPerfectAndInverse(t *testing.T) {
	a := NewSeries(t0, time.Minute, 100)
	b := NewSeries(t0, time.Minute, 100)
	for i := 0; i < 100; i += 2 {
		a.Mark(t0.Add(time.Duration(i) * time.Minute))
		b.Mark(t0.Add(time.Duration(i) * time.Minute))
	}
	r, err := pearson(a, b)
	if err != nil || math.Abs(r-1) > 1e-9 {
		t.Errorf("identical series r = %v, %v", r, err)
	}
	c := NewSeries(t0, time.Minute, 100)
	for i := 1; i < 100; i += 2 {
		c.Mark(t0.Add(time.Duration(i) * time.Minute))
	}
	r, err = pearson(a, c)
	if err != nil || math.Abs(r+1) > 1e-9 {
		t.Errorf("complementary series r = %v, %v", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	c := NewSeries(t0, time.Minute, 10) // all zero: zero variance
	d := NewSeries(t0, time.Minute, 10)
	d.Mark(t0)
	if _, err := pearson(c, d); err == nil {
		t.Error("zero-variance series accepted")
	}
	if _, err := pearson(NewSeries(t0, time.Minute, 0), NewSeries(t0, time.Minute, 0)); err == nil {
		t.Error("empty series accepted")
	}
}

// TestCorrelatedSeriesSignificant: a diagnostic series that precedes the
// symptom series by one bin (causal lag within the smoothing radius) must
// test significant.
func TestCorrelatedSeriesSignificant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2000
	sym := NewSeries(t0, time.Minute, n)
	diag := NewSeries(t0, time.Minute, n)
	for i := 0; i < 60; i++ {
		bin := rng.Intn(n - 2)
		diag.Mark(t0.Add(time.Duration(bin) * time.Minute))
		sym.Mark(t0.Add(time.Duration(bin+1) * time.Minute))
	}
	res, err := Tester{}.Test(sym.Smooth(1), diag.Smooth(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant {
		t.Errorf("causal pair not significant: %+v", res)
	}
	if res.Score < DefaultThreshold {
		t.Errorf("score = %v", res.Score)
	}
}

// TestIndependentSeriesNotSignificant: two independent random series must
// (almost always, and deterministically under the fixed seed) fail the
// test.
func TestIndependentSeriesNotSignificant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 2000
	a := NewSeries(t0, time.Minute, n)
	b := NewSeries(t0, time.Minute, n)
	for i := 0; i < 80; i++ {
		a.Mark(t0.Add(time.Duration(rng.Intn(n)) * time.Minute))
		b.Mark(t0.Add(time.Duration(rng.Intn(n)) * time.Minute))
	}
	res, err := Tester{}.Test(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant {
		t.Errorf("independent pair significant: %+v", res)
	}
}

// TestAutocorrelatedBurstsHandled is NICE's raison d'être: two independent
// but *bursty* series co-occur by chance more than a naive independence
// assumption predicts, yet the circular permutation test — which preserves
// burst structure under shifts — must still reject them.
func TestAutocorrelatedBurstsHandled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 4000
	mkBursty := func() *Series {
		s := NewSeries(t0, time.Minute, n)
		for b := 0; b < 12; b++ {
			at := rng.Intn(n - 60)
			for i := 0; i < 30; i++ { // 30-minute bursts
				s.Mark(t0.Add(time.Duration(at+i) * time.Minute))
			}
		}
		return s
	}
	sig := 0
	for trial := 0; trial < 10; trial++ {
		a, b := mkBursty(), mkBursty()
		res, err := Tester{Rand: rand.New(rand.NewSource(int64(trial)))}.Test(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Significant {
			sig++
		}
	}
	if sig > 1 {
		t.Errorf("bursty independent series flagged significant in %d/10 trials", sig)
	}
}

func TestTesterErrors(t *testing.T) {
	a := NewSeries(t0, time.Minute, 3)
	if _, err := (Tester{}).Test(a, a); err == nil {
		t.Error("too-short series accepted")
	}
	b := NewSeries(t0, time.Minute, 100)
	c := NewSeries(t0, time.Minute, 99)
	if _, err := (Tester{}).Test(b, c); err == nil {
		t.Error("length mismatch accepted")
	}
	d := NewSeries(t0, time.Minute, 100) // zero variance
	e := NewSeries(t0, time.Minute, 100)
	e.Mark(t0)
	if _, err := (Tester{}).Test(d, e); err == nil {
		t.Error("zero-variance series accepted")
	}
}

func TestShiftsCapped(t *testing.T) {
	a := NewSeries(t0, time.Minute, 10)
	b := NewSeries(t0, time.Minute, 10)
	for i := 0; i < 10; i += 2 {
		a.Mark(t0.Add(time.Duration(i) * time.Minute))
		b.Mark(t0.Add(time.Duration(i) * time.Minute))
	}
	res, err := Tester{Shifts: 10000}.Test(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shifts > 9 {
		t.Errorf("shifts = %d, want ≤ n−1", res.Shifts)
	}
}
