package simnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"
	"time"
)

// goldenConfigs are the corpora whose bytes TestGenerateGolden pins: the
// bench harness's small and diagnosis corpora at seed 2011, and one
// that runs every scenario the other two leave out.
var goldenConfigs = []struct {
	name   string
	cfg    Config
	digest string
}{
	{"bench-small", Config{
		Seed: 2011, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 6,
		Duration:         2 * 24 * time.Hour,
		BGPFlapIncidents: 80, CDNIncidents: 40,
	}, "c91cac864a88b5286dfa36c46bf1038077cdc86600d142af0ff398dd2b98ca10"},
	{"bench-rca", Config{
		Seed: 2011, PoPs: 12, PERsPerPoP: 6, SessionsPerPER: 10,
		Duration:         14 * 24 * time.Hour,
		BGPFlapIncidents: 1500, CDNIncidents: 600, PIMIncidents: 600,
	}, "e84a86fbe9d90dd400e485086fbed6966e5032a41215799b52002724c234724b"},
	{"all-scenarios", Config{
		Seed: 5, PoPs: 4, PERsPerPoP: 2, SessionsPerPER: 10,
		Duration:         7 * 24 * time.Hour,
		BGPFlapIncidents: 100, CDNIncidents: 30, PIMIncidents: 30,
		BackboneIncidents: 60, LineCardCrash: true, ProvisioningBugIncidents: 20,
	}, "6846fac55d3e76a9d35ca94fb1785283723458fab3b1c566326efecdcb31982f"},
}

// datasetDigest hashes everything Generate renders: every feed in source
// order, the ground truth, the configuration archive and the inventory.
func datasetDigest(d *Dataset) string {
	h := sha256.New()
	srcs := make([]string, 0, len(d.Feeds))
	for src := range d.Feeds {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		fmt.Fprintf(h, "feed %s %d\n", src, len(d.Feeds[src]))
		io.WriteString(h, d.Feeds[src])
	}
	for _, t := range d.Truth {
		fmt.Fprintf(h, "truth %d|%s|%s|%d|%s\n", t.ID, t.Study, t.Kind, t.At.UnixNano(), t.Where)
	}
	for _, c := range d.Configs {
		fmt.Fprintf(h, "config %s %d\n", c.Hostname, len(c.Text))
		io.WriteString(h, c.Text)
	}
	fmt.Fprintf(h, "inventory %d\n", len(d.Inventory))
	io.WriteString(h, d.Inventory)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins Generate's output byte for byte: the corpus is a
// pure function of Config, so any change to how it is rendered must leave
// these digests alone, on however many goroutines it is rendered.
func TestGenerateGolden(t *testing.T) {
	for _, g := range goldenConfigs {
		t.Run(g.name, func(t *testing.T) {
			for _, procs := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					d, err := Generate(g.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := datasetDigest(d); got != g.digest {
						t.Errorf("digest = %s, want %s", got, g.digest)
					}
				})
			}
		})
	}
}
