package platform

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"grca/internal/apps/cdn"
	"grca/internal/collector"
	"grca/internal/conf"
	"grca/internal/netmodel"
	"grca/internal/netstate"
	"grca/internal/simnet"
	"grca/internal/store"
)

// Bundle is a self-contained dataset: the configuration archive, the raw
// feeds, the service deployment metadata, and (for simulated corpora) the
// ground truth. It is what cmd/grca-sim writes and cmd/grca reads.
type Bundle struct {
	Configs   []conf.DeviceConfig
	Inventory string
	Feeds     map[string]string
	Start     time.Time
	Duration  time.Duration
	CDN       cdn.Deployment
	Truth     []simnet.Truth
}

// BundleFromDataset packages a simulated dataset.
func BundleFromDataset(d *simnet.Dataset) Bundle {
	return Bundle{
		Configs:   d.Configs,
		Inventory: d.Inventory,
		Feeds:     d.Feeds,
		Start:     d.Config.Start,
		Duration:  d.Config.Duration,
		CDN:       Deployment(d),
		Truth:     d.Truth,
	}
}

// Assemble runs the full pipeline over the bundle.
func (b Bundle) Assemble(opts Options) (*System, error) {
	topo, err := conf.Parse(b.Configs, b.Inventory)
	if err != nil {
		return nil, fmt.Errorf("platform: config archive: %v", err)
	}
	sys, err := assemble(topo, b.Feeds, b.Start, b.Duration, opts)
	if err != nil {
		return nil, err
	}
	cdn.Register(sys.View, b.CDN)
	cdn.MaterializeEgressChanges(sys.Collector, b.CDN, b.Start, b.Start.Add(b.Duration))
	return sys, nil
}

// manifest is the JSON sidecar of an on-disk bundle.
type manifest struct {
	Start    time.Time      `json:"start"`
	Duration time.Duration  `json:"duration"`
	CDN      cdn.Deployment `json:"cdn"`
	Truth    []simnet.Truth `json:"truth,omitempty"`
}

// Save writes the bundle under dir:
//
//	dir/configs.archive   (conf.WriteArchive format)
//	dir/feeds/<source>.log
//	dir/manifest.json
func Save(dir string, b Bundle) error {
	if err := os.MkdirAll(filepath.Join(dir, "feeds"), 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "configs.archive"))
	if err != nil {
		return err
	}
	if err := conf.WriteArchive(f, b.Configs, b.Inventory); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	srcs := make([]string, 0, len(b.Feeds))
	for src := range b.Feeds {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		if err := os.WriteFile(filepath.Join(dir, "feeds", src+".log"), []byte(b.Feeds[src]), 0o644); err != nil {
			return err
		}
	}
	m := manifest{Start: b.Start, Duration: b.Duration, CDN: b.CDN, Truth: b.Truth}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644)
}

// Load reads a bundle previously written by Save.
func Load(dir string) (Bundle, error) {
	var b Bundle
	f, err := os.Open(filepath.Join(dir, "configs.archive"))
	if err != nil {
		return b, err
	}
	defer f.Close()
	configs, inventory, err := conf.ReadArchive(f)
	if err != nil {
		return b, err
	}
	b.Configs, b.Inventory = configs, inventory

	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return b, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return b, fmt.Errorf("platform: manifest: %v", err)
	}
	b.Start, b.Duration, b.CDN, b.Truth = m.Start, m.Duration, m.CDN, m.Truth

	b.Feeds = map[string]string{}
	entries, err := os.ReadDir(filepath.Join(dir, "feeds"))
	if err != nil {
		return b, err
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".log" {
			continue
		}
		text, err := os.ReadFile(filepath.Join(dir, "feeds", name))
		if err != nil {
			return b, err
		}
		b.Feeds[name[:len(name)-len(".log")]] = string(text)
	}
	return b, nil
}

// assemble is the shared pipeline core.
func assemble(topo *netmodel.Topology, feeds map[string]string, start time.Time, duration time.Duration, opts Options) (*System, error) {
	st := store.New()
	c := collector.New(topo, st, start.Year())
	c.WindowStart, c.WindowEnd = start, start.Add(duration)
	c.EmitGenericSignatures = opts.GenericSignatures
	for _, src := range collector.Sources {
		feed, ok := feeds[src]
		if !ok {
			continue
		}
		if err := c.Ingest(src, strings.NewReader(feed)); err != nil {
			return nil, fmt.Errorf("platform: ingest %s: %v", src, err)
		}
	}
	if err := c.Finalize(); err != nil {
		return nil, err
	}
	view := netstate.NewView(topo, c.OSPF, c.BGP)
	return &System{Topo: topo, Store: st, Collector: c, View: view}, nil
}
