package simnet

import (
	"strings"
	"testing"
)

var benchDataset *Dataset

// BenchmarkGenerate prices one corpus at the bench harness's two sizes:
// "rca" is the diagnosis corpus (≈ 429k lines), "small" the write-path one.
// lines/s counts every feed line rendered.
func BenchmarkGenerate(b *testing.B) {
	for _, g := range goldenConfigs[:2] {
		name := strings.TrimPrefix(g.name, "bench-")
		cfg := g.cfg
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			lines := 0
			for i := 0; i < b.N; i++ {
				d, err := Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchDataset = d
			}
			for _, text := range benchDataset.Feeds {
				lines += strings.Count(text, "\n")
			}
			b.ReportMetric(float64(lines)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}
