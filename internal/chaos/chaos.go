// Package chaos is a seeded, fully deterministic fault-injection harness
// for the G-RCA pipeline. It perturbs simulated datasets *before*
// ingestion — per-router clock skew, out-of-order and duplicated records,
// truncated lines, dropped sources, delayed feed delivery into the
// streaming processor — and scores the diagnoses produced from the
// perturbed data against the generator's ground-truth labels.
//
// The paper validates G-RCA operationally against a tier-1 ISP's feeds
// (§IV); this harness reproduces the *conditions* of those feeds — ~600
// heterogeneous sources with skewed clocks, gaps, and duplicates (§II-A)
// — with labels we control, so every robustness claim ("diagnosis
// survives a dropped layer-1 feed") is a measured accuracy bound rather
// than an anecdote.
//
// Everything is derived from Config.Seed through per-(fault, source)
// sub-generators: the same seed produces byte-identical perturbed feeds
// and byte-identical JSON reports regardless of map iteration order or
// which other fault classes are active.
package chaos

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"grca/internal/collector"
	"grca/internal/platform"
)

// Fault names one injectable fault class.
type Fault string

const (
	// FaultSkew shifts each affected router's syslog clock by a fixed
	// per-router offset — the device-local-time failure mode the
	// collector's timezone normalization cannot see (a drifted clock
	// looks exactly like a correct one).
	FaultSkew Fault = "skew"
	// FaultReorder displaces records within each feed, breaking the
	// sorted-by-time delivery the simulator otherwise guarantees.
	FaultReorder Fault = "reorder"
	// FaultDuplicate repeats records — the at-least-once delivery of a
	// collector that retries on timeout.
	FaultDuplicate Fault = "duplicate"
	// FaultTruncate cuts records short mid-line, producing the malformed
	// tails of a feed interrupted mid-write.
	FaultTruncate Fault = "truncate"
	// FaultDropSource removes whole feeds, as when a monitor host dies
	// for the collection period.
	FaultDropSource Fault = "drop-source"
	// FaultDelay holds back a fraction of normalized events past the
	// streaming processor's grace window (exercised by Replay; feed text
	// is unaffected).
	FaultDelay Fault = "delay"
	// FaultCrashRestart kills the diagnosis service (server.Open) mid-ingest
	// and boots the data dir's image (exercised by CrashReplay; feed text is
	// unaffected): the batch in flight is posted again after recovery, and
	// the rebooted node must answer as one that never crashed — the same
	// store digest and /v1/breakdown bytes.
	FaultCrashRestart Fault = "crash-restart"
	// FaultReplicaLag stalls a read replica's journal stream, held open,
	// once lagFraction of the primary's journal has passed (exercised by
	// ReplicaReplay; feed text is unaffected): the follower serves a
	// consistent stale prefix until the stream resumes, and the healed
	// follower must answer as the primary does.
	FaultReplicaLag Fault = "replica-lag"
	// FaultPartition severs the journal stream at seeded byte offsets —
	// usually mid-frame — partitionCount times (exercised by
	// ReplicaReplay): each reconnect resumes from the follower's applied
	// sequence through the torn-frame discard path, and the healed
	// follower must answer as the primary does.
	FaultPartition Fault = "partition"
)

// AllFaults lists every fault class in canonical order.
func AllFaults() []Fault {
	return []Fault{FaultSkew, FaultReorder, FaultDuplicate, FaultTruncate, FaultDropSource, FaultDelay, FaultCrashRestart, FaultReplicaLag, FaultPartition}
}

// Bounds documents the maximum top-cause accuracy drop (absolute, on the
// matched-symptom accuracy of Score) each fault class may inflict at the
// rates below and Config's defaults. The scenario-matrix tests enforce
// these bounds; widen one only with a DESIGN.md §9 note explaining what
// got worse.
var Bounds = map[Fault]float64{
	FaultSkew:         0.10, // seconds-scale skew sits well inside minutes-scale join windows
	FaultReorder:      0.02, // ingest restores record order on stateful feeds; pairing buffers sort in Finalize
	FaultDuplicate:    0.10, // duplicate edges re-pair into extra, but aligned, events
	FaultTruncate:     0.15, // lost evidence lines demote some diagnoses to shallower causes
	FaultDropSource:   0.35, // a whole evidence feed gone degrades its dependent classes
	FaultDelay:        0.15, // forced/late diagnoses run on incomplete evidence
	FaultCrashRestart: 0.0,  // recovery is byte-identical, so diagnoses must not move at all
	FaultReplicaLag:   0.0,  // lag delays visibility only: the healed follower is byte-identical
	FaultPartition:    0.0,  // torn frames never decode; reconnects re-ship, converging byte-identical
}

// The fault classes' fixed rates, the ones Bounds is measured at.
const (
	// skewMax bounds the per-router clock offset: skewed routers draw
	// uniformly from ±skewMax at second granularity, excluding zero.
	skewMax = 15 * time.Second
	// reorderFraction of records are displaced forward by up to
	// reorderWindow positions.
	reorderFraction = 0.10
	reorderWindow   = 8
	// dropCount feeds are picked from DefaultDroppable and removed.
	dropCount = 1
	// delayFraction of streamed events are delivered up to delayMax after
	// their availability time — far enough past any derived grace period
	// to exercise the late path — into a processor whose pending queue
	// holds at most maxPending symptoms.
	delayFraction = 0.05
	delayMax      = 4 * time.Hour
	maxPending    = 256
	// lagFraction is where the replica-lag scenario stalls the journal
	// stream, as a fraction of the primary's ingest batches;
	// partitionCount is how many seeded mid-stream connection cuts the
	// partition scenario inflicts before healing.
	lagFraction    = 0.6
	partitionCount = 3
	// tolerance is Score's truth-matching window.
	tolerance = 10 * time.Minute
)

// crashCount kill -9 restarts are simulated at seed-derived points in the
// stream; crashBatch events go to one acknowledged ingest batch, bounding
// what each crash leaves in flight and re-delivers, and the durability
// classes checkpoint every 4×crashBatch events. Package variables that
// only tests lower.
var (
	crashCount = 3
	crashBatch = 256
)

// DefaultDroppable lists the sources FaultDropSource picks from:
// auxiliary evidence feeds whose loss degrades attribution but leaves
// symptoms detectable. A symptom feed itself (syslog, keynote) is never
// dropped, so the matrix holds every application's symptoms.
var DefaultDroppable = []string{
	collector.SourceLayer1,
	collector.SourceTACACS,
	collector.SourceWorkflow,
	collector.SourceServer,
}

// Config parameterizes an Injector: the seed, the fault classes applied,
// and the three rates a caller may raise; a rate at zero takes its
// default.
type Config struct {
	Seed   int64
	Faults []Fault

	// SkewFraction of routers are skewed (default 0.5).
	SkewFraction float64

	// DuplicateFraction of records are emitted twice (default 0.05).
	DuplicateFraction float64

	// TruncateFraction of records are cut short at a random byte
	// (default 0.02).
	TruncateFraction float64
}

func (c *Config) defaults() {
	if c.SkewFraction == 0 {
		c.SkewFraction = 0.5
	}
	if c.DuplicateFraction == 0 {
		c.DuplicateFraction = 0.05
	}
	if c.TruncateFraction == 0 {
		c.TruncateFraction = 0.02
	}
}

// Injector applies a Config's fault mix. One Injector perturbs one
// dataset; build a fresh one per scenario.
type Injector struct {
	cfg Config

	// Dropped records which sources Bundle removed (sorted).
	Dropped []string
}

// New builds an injector; cfg rates at zero take the defaults.
func New(cfg Config) *Injector {
	cfg.defaults()
	return &Injector{cfg: cfg}
}

func (inj *Injector) has(f Fault) bool {
	for _, g := range inj.cfg.Faults {
		if g == f {
			return true
		}
	}
	return false
}

// hash derives a stable 64-bit value from the seed and a tag path —
// independent of map iteration order and of which other faults run.
func (inj *Injector) hash(parts ...string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(inj.cfg.Seed))
	h.Write(b[:])
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return h.Sum64()
}

// rng derives a dedicated generator for one (fault, source) pair.
func (inj *Injector) rng(parts ...string) *rand.Rand {
	return rand.New(rand.NewSource(int64(inj.hash(parts...))))
}

// Bundle returns a perturbed copy of b: sources dropped, then every
// surviving feed run through Feed. Configs, truth, and metadata are
// shared — only the raw feeds change, exactly like corruption between
// the network elements and the collector.
func (inj *Injector) Bundle(b platform.Bundle) platform.Bundle {
	out := b
	out.Feeds = map[string]string{}
	drop := map[string]bool{}
	if inj.has(FaultDropSource) {
		for _, src := range inj.pickDrops(b.Feeds) {
			drop[src] = true
		}
	}
	srcs := make([]string, 0, len(b.Feeds))
	for src := range b.Feeds {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	inj.Dropped = nil
	for _, src := range srcs {
		if drop[src] {
			inj.Dropped = append(inj.Dropped, src)
			continue
		}
		out.Feeds[src] = inj.Feed(src, b.Feeds[src])
	}
	return out
}

// pickDrops picks dropCount of the DefaultDroppable feeds present.
func (inj *Injector) pickDrops(feeds map[string]string) []string {
	var cands []string
	for _, src := range DefaultDroppable {
		if _, ok := feeds[src]; ok {
			cands = append(cands, src)
		}
	}
	rng := inj.rng("drop")
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > dropCount {
		cands = cands[:dropCount]
	}
	sort.Strings(cands)
	return cands
}

// Feed applies the line-level fault classes (skew, reorder, duplicate,
// truncate) to one feed's raw text. Drop and delay operate at other
// layers and are ignored here. The mutation of a feed depends only on
// (seed, source name, feed text).
func (inj *Injector) Feed(source, text string) string {
	lines := splitLines(text)
	if inj.has(FaultSkew) {
		inj.skewLines(source, lines)
	}
	if inj.has(FaultReorder) {
		lines = inj.reorderLines(source, lines)
	}
	if inj.has(FaultDuplicate) {
		lines = inj.duplicateLines(source, lines)
	}
	if inj.has(FaultTruncate) {
		inj.truncateLines(source, lines)
	}
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

func splitLines(text string) []string {
	text = strings.TrimSuffix(text, "\n")
	if text == "" {
		return nil
	}
	return strings.Split(text, "\n")
}

// skewLines applies per-router clock skew. Only syslog carries
// device-local clocks (every other feed is stamped by a centralized
// poller), so skew rewrites the RFC 3164 timestamp of each affected
// device's lines by that device's fixed offset. The offset is a pure
// function of (seed, device token), so a device is skewed consistently
// across its whole feed — drifted clocks are wrong, not noisy.
func (inj *Injector) skewLines(source string, lines []string) {
	if source != collector.SourceSyslog {
		return
	}
	for i, line := range lines {
		if len(line) < 16 || line[0] == '#' {
			continue
		}
		stamp := line[:15]
		ts, err := time.Parse("Jan _2 15:04:05", stamp)
		if err != nil {
			continue
		}
		rest := line[15:]
		device := strings.Fields(rest)
		if len(device) == 0 {
			continue
		}
		skew := inj.skewFor(device[0])
		if skew == 0 {
			continue
		}
		lines[i] = ts.Add(skew).Format("Jan _2 15:04:05") + rest
	}
}

// skewFor returns the clock offset of one device token: zero for
// unaffected devices, else a uniform draw from ±skewMax (seconds,
// nonzero).
func (inj *Injector) skewFor(device string) time.Duration {
	h := inj.hash("skew", device)
	if float64(h%1_000_000)/1_000_000 >= inj.cfg.SkewFraction {
		return 0
	}
	const maxSec = int64(skewMax / time.Second)
	h2 := inj.hash("skew-mag", device)
	v := int64(h2%uint64(2*maxSec)) - maxSec // [-maxSec, maxSec)
	if v >= 0 {
		v++ // skip zero: a selected device is always wrong
	}
	return time.Duration(v) * time.Second
}

// reorderLines displaces a fraction of records forward by up to
// reorderWindow positions — local shuffling, the way multi-threaded relay
// daemons interleave, not wholesale scrambling.
func (inj *Injector) reorderLines(source string, lines []string) []string {
	rng := inj.rng("reorder", source)
	for i := range lines {
		if rng.Float64() >= reorderFraction {
			continue
		}
		j := i + 1 + rng.Intn(reorderWindow)
		if j < len(lines) {
			lines[i], lines[j] = lines[j], lines[i]
		}
	}
	return lines
}

// duplicateLines re-emits a fraction of records immediately after the
// original (at-least-once delivery).
func (inj *Injector) duplicateLines(source string, lines []string) []string {
	rng := inj.rng("duplicate", source)
	out := make([]string, 0, len(lines))
	for _, line := range lines {
		out = append(out, line)
		if rng.Float64() < inj.cfg.DuplicateFraction {
			out = append(out, line)
		}
	}
	return out
}

// truncateLines cuts a fraction of records short at a random byte. The
// collector must tally these as malformed (or, rarely, parse a still-
// valid prefix) without aborting.
func (inj *Injector) truncateLines(source string, lines []string) {
	rng := inj.rng("truncate", source)
	for i, line := range lines {
		if rng.Float64() >= inj.cfg.TruncateFraction || len(line) < 2 {
			continue
		}
		lines[i] = line[:1+rng.Intn(len(line)-1)]
	}
}
