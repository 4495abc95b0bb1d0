// Package nice implements the statistical correlation tester G-RCA uses to
// validate and discover diagnosis rules (paper §II-E), following the NICE
// approach of Mahimkar et al. (CoNEXT 2008): two event series are reduced
// to binary time series, their Pearson correlation is computed, and
// significance is assessed with a *circular permutation* test — one series
// is circularly shifted and the correlation recomputed, building a null
// distribution that preserves each series' autocorrelation structure
// (which canonical independence tests mishandle for bursty network event
// series).
//
// The correlation is declared significant when the unshifted score exceeds
// the null mean by more than DefaultThreshold standard deviations.
package nice

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"grca/internal/event"
)

// DefaultThreshold is the significance threshold in null-distribution
// standard deviations.
const DefaultThreshold = 3.0

// Series is a binned binary event time series.
type Series struct {
	Start time.Time
	Bin   time.Duration
	bits  []bool
}

// NewSeries creates an all-zero series of n bins.
func NewSeries(start time.Time, bin time.Duration, n int) *Series {
	return &Series{Start: start, Bin: bin, bits: make([]bool, n)}
}

// Len returns the number of bins.
func (s *Series) Len() int { return len(s.bits) }

// Set marks the bins covering [from, to]. Out-of-range portions are
// clipped.
func (s *Series) Set(from, to time.Time) {
	if to.Before(from) || len(s.bits) == 0 {
		return
	}
	lo := int(from.Sub(s.Start) / s.Bin)
	hi := int(to.Sub(s.Start) / s.Bin)
	if hi < 0 || lo >= len(s.bits) {
		return
	}
	if lo < 0 {
		lo = 0
	}
	if hi >= len(s.bits) {
		hi = len(s.bits) - 1
	}
	for i := lo; i <= hi; i++ {
		s.bits[i] = true
	}
}

// Mark sets the single bin containing t.
//
//lint:ignore deadcode BenchmarkAblationTester marks its synthetic bursty series bin by bin
func (s *Series) Mark(t time.Time) { s.Set(t, t) }

// At reports whether bin i is set.
func (s *Series) At(i int) bool { return s.bits[i] }

// Smooth returns a copy with every set bin dilated by radius bins on each
// side, NICE's tolerance for timing fuzz between related series.
func (s *Series) Smooth(radius int) *Series {
	out := NewSeries(s.Start, s.Bin, len(s.bits))
	for i, b := range s.bits {
		if !b {
			continue
		}
		lo, hi := i-radius, i+radius
		if lo < 0 {
			lo = 0
		}
		if hi >= len(s.bits) {
			hi = len(s.bits) - 1
		}
		for j := lo; j <= hi; j++ {
			out.bits[j] = true
		}
	}
	return out
}

// FromInstances bins event instances into a fresh series.
func FromInstances(ins []*event.Instance, start time.Time, bin time.Duration, n int) *Series {
	s := NewSeries(start, bin, n)
	for _, in := range ins {
		s.Set(in.Start, in.End)
	}
	return s
}

// pearsonShifted computes Pearson correlation of a against b circularly
// shifted by k bins. For binary series the formula reduces to counting
// joint ones.
func pearsonShifted(a, b []bool, k int) (float64, error) {
	n := len(a)
	if n == 0 {
		return 0, fmt.Errorf("nice: empty series")
	}
	na, nb, nab := 0, 0, 0
	for i := 0; i < n; i++ {
		j := i + k
		if j >= n {
			j -= n
		}
		x, y := a[i], b[j]
		if x {
			na++
		}
		if y {
			nb++
		}
		if x && y {
			nab++
		}
	}
	fa, fb := float64(na)/float64(n), float64(nb)/float64(n)
	va, vb := fa*(1-fa), fb*(1-fb)
	if va == 0 || vb == 0 {
		return 0, fmt.Errorf("nice: zero-variance series (ones: %d and %d of %d)", na, nb, n)
	}
	cov := float64(nab)/float64(n) - fa*fb
	return cov / math.Sqrt(va*vb), nil
}

// Result reports one correlation test.
type Result struct {
	// Corr is the unshifted Pearson correlation.
	Corr float64
	// NullMean and NullStd characterize the circular-shift null
	// distribution.
	NullMean float64
	NullStd  float64
	// Score is (Corr − NullMean) / NullStd.
	Score float64
	// Significant is Score > DefaultThreshold.
	Significant bool
	// Shifts is the number of circular permutations evaluated.
	Shifts int
}

// Tester configures circular permutation testing.
type Tester struct {
	// Shifts is the number of circular offsets sampled for the null
	// distribution (default 200).
	Shifts int
	// Rand drives offset sampling; a nil Rand uses a fixed seed so tests
	// and experiments are reproducible.
	Rand *rand.Rand
}

// Test runs the circular permutation test of series b against a.
func (t Tester) Test(a, b *Series) (Result, error) {
	shifts := t.Shifts
	if shifts <= 0 {
		shifts = 200
	}
	rng := t.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if a.Len() != b.Len() {
		return Result{}, fmt.Errorf("nice: series length mismatch (%d vs %d)", a.Len(), b.Len())
	}
	n := a.Len()
	if n < 4 {
		return Result{}, fmt.Errorf("nice: series too short (%d bins)", n)
	}
	corr, err := pearsonShifted(a.bits, b.bits, 0)
	if err != nil {
		return Result{}, err
	}
	if shifts > n-1 {
		shifts = n - 1
	}
	// Sample distinct non-zero circular offsets. Beyond half the bins the
	// shifted overlap wraps symmetrically, but distinct offsets still give
	// distinct alignments, so sample across the full range.
	var sum, sumsq float64
	for i := 0; i < shifts; i++ {
		k := 1 + rng.Intn(n-1)
		r, err := pearsonShifted(a.bits, b.bits, k)
		if err != nil {
			return Result{}, err
		}
		sum += r
		sumsq += r * r
	}
	mean := sum / float64(shifts)
	variance := sumsq/float64(shifts) - mean*mean
	if variance < 0 {
		variance = 0
	}
	std := math.Sqrt(variance)
	res := Result{Corr: corr, NullMean: mean, NullStd: std, Shifts: shifts}
	if std == 0 {
		// A degenerate null (e.g. a constant-correlation pair): fall back
		// to requiring a materially positive raw correlation.
		res.Score = math.Inf(1)
		res.Significant = corr > mean+1e-9
		return res, nil
	}
	res.Score = (corr - mean) / std
	res.Significant = res.Score > DefaultThreshold
	return res, nil
}
