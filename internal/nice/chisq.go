package nice

import (
	"fmt"
	"math"
)

// ChiSquared is the canonical independence test the paper contrasts NICE
// against (§V cites CORDS' chi-squared analysis): it treats the bins of
// two binary series as independent draws and tests the 2×2 contingency
// table. On network event series — which are bursty, i.e. strongly
// autocorrelated — the independence assumption undercounts the variance
// of chance co-occurrence and over-declares significance; the circular
// permutation test exists precisely to fix that. BenchmarkAblationTester
// quantifies the difference.
//
//lint:ignore deadcode BenchmarkAblationTester is the comparison this baseline exists for
type ChiSquared struct {
	// Threshold is the χ² statistic above which (with positive
	// association) the pair is declared significant. The default 10.83
	// corresponds to p ≈ 0.001 at one degree of freedom.
	Threshold float64
}

// DefaultChiSquaredThreshold is the 1-dof critical value at p ≈ 0.001.
const DefaultChiSquaredThreshold = 10.83

// Test computes the chi-squared statistic of the 2×2 contingency table of
// the two series. The result reuses Result: Corr carries the phi
// coefficient (the Pearson correlation of binary variables), Score the χ²
// statistic.
//
//lint:ignore deadcode BenchmarkAblationTester runs it beside the circular permutation test
func (c ChiSquared) Test(a, b *Series) (Result, error) {
	if a.Len() != b.Len() {
		return Result{}, fmt.Errorf("nice: series length mismatch (%d vs %d)", a.Len(), b.Len())
	}
	n := a.Len()
	if n < 4 {
		return Result{}, fmt.Errorf("nice: series too short (%d bins)", n)
	}
	var n11, n10, n01, n00 float64
	for i := 0; i < n; i++ {
		switch {
		case a.At(i) && b.At(i):
			n11++
		case a.At(i):
			n10++
		case b.At(i):
			n01++
		default:
			n00++
		}
	}
	rowA, rowNotA := n11+n10, n01+n00
	colB, colNotB := n11+n01, n10+n00
	if rowA == 0 || rowNotA == 0 || colB == 0 || colNotB == 0 {
		return Result{}, fmt.Errorf("nice: zero-variance series")
	}
	total := float64(n)
	chi2 := total * (n11*n00 - n10*n01) * (n11*n00 - n10*n01) /
		(rowA * rowNotA * colB * colNotB)
	phi := (n11*n00 - n10*n01) / math.Sqrt(rowA*rowNotA*colB*colNotB)

	threshold := c.Threshold
	if threshold == 0 {
		threshold = DefaultChiSquaredThreshold
	}
	return Result{
		Corr:        phi,
		Score:       chi2,
		Significant: chi2 > threshold && phi > 0,
	}, nil
}
