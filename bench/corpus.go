package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"grca/internal/collector"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/platform"
	"grca/internal/simnet"
	"grca/internal/wire"
)

// feedOrder is the ingestion order of the raw feeds: routing feeds first,
// so that state reconstruction sees them before the events they explain.
var feedOrder = []string{
	collector.SourceOSPFMon, collector.SourceBGPMon, collector.SourceSyslog,
	collector.SourceSNMP, collector.SourceTACACS, collector.SourceWorkflow,
	collector.SourceLayer1, collector.SourcePerfMon, collector.SourceKeynote,
	collector.SourceServer,
}

// smallConfig is the serve_smoke corpus: just enough network to get a
// finalized server under the write-only workloads.
func smallConfig(seed int64) simnet.Config {
	return simnet.Config{
		Seed: seed, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 6,
		Duration:         2 * 24 * time.Hour,
		BGPFlapIncidents: 80, CDNIncidents: 40,
	}
}

// rcaConfig is the diagnosis corpus: 816 routers, ~429k raw lines and
// ~2700 root symptoms across the three applications.
func rcaConfig(seed int64) simnet.Config {
	return simnet.Config{
		Seed: seed, PoPs: 12, PERsPerPoP: 6, SessionsPerPER: 10,
		Duration:         14 * 24 * time.Hour,
		BGPFlapIncidents: 1500, CDNIncidents: 600, PIMIncidents: 600,
	}
}

// feedChunk is one pre-encoded raw-feed request.
type feedChunk struct {
	source string
	lines  string // what the body carries, for the in-process reference
	body   []byte // wire.KindFeed batch
}

// corpus is one generated dataset, saved where the server can load its
// configuration archive, with its feeds cut into request bodies.
type corpus struct {
	ds     *simnet.Dataset
	bundle platform.Bundle
	dir    string // bundle directory: configs + manifest, no feeds
	chunks []feedChunk
	lines  int
}

// generate builds the dataset for cfg. The simulator cannot place every
// incident for every seed; the seed is then stepped by a fixed stride, so
// the inputs stay a function of -seed alone.
func generate(cfg simnet.Config) (*simnet.Dataset, error) {
	var err error
	for try := 0; try < 8; try++ {
		var ds *simnet.Dataset
		if ds, err = simnet.Generate(cfg); err == nil {
			return ds, nil
		}
		cfg.Seed += 1_000_003
	}
	return nil, fmt.Errorf("simnet: %v", err)
}

// buildCorpus generates cfg, writes the server's bundle under dir, and
// encodes the feeds as line-aligned wire chunks.
func buildCorpus(cfg simnet.Config, dir string) (*corpus, error) {
	ds, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	c := &corpus{ds: ds, bundle: platform.BundleFromDataset(ds), dir: dir}
	// The server takes its feeds over HTTP; saving them too would only
	// make every (re)start read them back.
	served := c.bundle
	served.Feeds = nil
	if err := platform.Save(dir, served); err != nil {
		return nil, err
	}
	for _, src := range feedOrder {
		feed, ok := ds.Feeds[src]
		if !ok {
			continue
		}
		parts, err := chunkLines(feed, maxChunk)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", src, err)
		}
		for _, part := range parts {
			c.chunks = append(c.chunks, feedChunk{src, part, wire.AppendFeed(nil, src, part)})
			c.lines += strings.Count(part, "\n")
		}
	}
	return c, nil
}

// upStream generates in-order "Interface up" events one millisecond
// apart on 64 interfaces of the corpus, both drawn by seed.
type upStream struct {
	locs  []locus.Location
	rng   *rand.Rand
	start time.Time
	sent  int
}

func newUpStream(c *corpus, seed int64, start time.Time) *upStream {
	var locs []locus.Location
	names := make([]string, 0, len(c.ds.Topo.Routers))
	for name := range c.ds.Topo.Routers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, card := range c.ds.Topo.Routers[name].Cards {
			for _, port := range card.Ports {
				locs = append(locs, locus.Between(locus.Interface, name, port.Name))
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(locs), func(i, j int) { locs[i], locs[j] = locs[j], locs[i] })
	if len(locs) > 64 {
		locs = locs[:64]
	}
	return &upStream{locs: locs, rng: rng, start: start}
}

// batch returns the stream's next n events.
func (u *upStream) batch(n int) []event.Instance {
	ins := make([]event.Instance, n)
	for i := range ins {
		at := u.start.Add(time.Duration(u.sent) * time.Millisecond)
		ins[i] = event.Instance{Name: event.InterfaceUp, Start: at, End: at, Loc: u.locs[u.rng.Intn(len(u.locs))]}
		u.sent++
	}
	return ins
}

// encode returns the next n events as wire batches of batch events, and
// how long the encoding itself took.
func (u *upStream) encode(n, batch int) (bodies [][]byte, took time.Duration) {
	bodies = make([][]byte, 0, (n+batch-1)/batch)
	for n > 0 {
		ins := u.batch(min(n, batch))
		n -= len(ins)
		t0 := time.Now()
		bodies = append(bodies, wire.AppendEvents(nil, ins))
		took += time.Since(t0)
	}
	return bodies, took
}

// buildBinary compiles cmd/grca from the checkout into bench/.build.
func buildBinary(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/grca")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/grca: %v\n%s", err, msg)
	}
	return nil
}

// moduleRoot finds the checkout root: the nearest directory at or above
// the working directory whose go.mod declares module grca.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module grca\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module grca at or above the working directory: run from the checkout")
		}
		dir = parent
	}
}
