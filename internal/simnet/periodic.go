package simnet

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"grca/internal/collector"
)

// The periodic measurement feeds (SNMP samples, inter-PoP probes, CDN
// measurements) are nearly all of a corpus's lines. Their values are
// drawn on the generating goroutine, in the order the corpus fixes, into
// blocks of rows; each block is rendered on up to GOMAXPROCS goroutines
// while the next is drawn.

// rowBlock is how many rows are drawn before they are rendered: it bounds
// the rows held at once (two blocks of 320 KiB) and the lines rendered
// but not yet in the feed (about 512 KiB a block).
const rowBlock = 1 << 13

// lineGuess is about how long a periodic line is, newline included: a
// shard reserves this much text a row before it renders (a longer line
// only grows the buffer).
const lineGuess = 64

// row is one line of a periodic feed as drawn: its time since
// Config.Start (whole seconds), which series of the feed it belongs to,
// and the values and device-reference forms drawn for it. It holds no
// pointer, so a block of rows costs the garbage collector no scanning.
type row struct {
	at     time.Duration
	series int32
	form   [2]uint8
	v      [3]float64
}

// unix is the row's Unix time, start being Config.Start's.
func (r *row) unix(start int64) int64 { return start + int64(r.at/time.Second) }

// block is rows drawn and not yet in the feed, and the shards that
// render them.
type block struct {
	rows   []row
	shards []shard // as many as rendered the rows
}

// shard is what one goroutine renders of a contiguous range of a block's
// rows: their lines back to back in text, each ending in a newline, and
// where each lies in text.
type shard struct {
	text []byte
	refs []lineRef
}

// periodic draws the periodic feeds, one after another, each into one
// block while the block before renders; the feeds use the same two
// blocks in turn, so their buffers are made once a corpus.
type periodic struct {
	d      *Dataset
	source string                          // the feed being drawn
	f      *feed                           // made when its first lines go in
	render func(dst []byte, r *row) []byte // its line renderer
	blocks [2]block
	draw   *block         // the block rows are drawn into
	last   *block         // the block handed off last
	wg     sync.WaitGroup // the goroutine rendering last
}

// newPeriodic returns the drawer of d's periodic feeds, its first block
// room for rows rows.
func (d *Dataset) newPeriodic(rows int) *periodic {
	p := &periodic{d: d}
	p.blocks[0].rows = make([]row, 0, rows)
	return p
}

// start begins source's feed, once the one before is finished, each row
// rendered by render, which must read nothing the generating goroutine
// writes.
func (p *periodic) start(source string, render func([]byte, *row) []byte) {
	p.source, p.f, p.render = source, nil, render
	p.draw, p.last = &p.blocks[0], &p.blocks[1]
}

// add appends a drawn row, handing the block off once it is full.
func (p *periodic) add(r row) {
	if cap(p.draw.rows) == 0 {
		p.draw.rows = make([]row, 0, rowBlock)
	}
	p.draw.rows = append(p.draw.rows, r)
	if len(p.draw.rows) == rowBlock {
		p.flush()
	}
}

// flush hands the drawn rows off to a goroutine that renders them, and
// meanwhile adds the block handed off before, rendered by now, to the
// feed, and so frees it to draw on into. Only the generating goroutine
// writes the feed.
func (p *periodic) flush() {
	if len(p.draw.rows) == 0 {
		return
	}
	p.wg.Wait()
	b := p.draw
	p.draw, p.last = p.last, b
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		renderBlock(b, p.render)
	}()
	p.addRendered(p.draw)
}

// finish hands off the rows still drawn and returns once every row is in
// the feed, which it begins to sort: the scenarios have emitted theirs,
// and the noise emits none.
func (p *periodic) finish() {
	p.flush()
	p.wg.Wait()
	p.addRendered(p.last)
	if p.f != nil && p.d.err == nil {
		p.f.sortEarly()
	}
}

// addRendered adds b's rendered shards' text to the feed in row order,
// which lays it out as adding each line as it was drawn would, on however
// many goroutines it was rendered, and empties b.
func (p *periodic) addRendered(b *block) {
	if len(b.rows) == 0 {
		return
	}
	if p.f == nil {
		p.f = p.d.feedOf(p.source)
	}
	for _, sh := range b.shards {
		if !p.f.addText(sh.text, sh.refs) {
			p.d.overflow(p.source)
			break
		}
	}
	b.rows = b.rows[:0]
}

// renderBlock renders b's rows on up to GOMAXPROCS goroutines, as many
// shards of contiguous rows.
func renderBlock(b *block, render func([]byte, *row) []byte) {
	n := min(runtime.GOMAXPROCS(0), len(b.rows))
	if cap(b.shards) < n {
		b.shards = append(b.shards[:cap(b.shards)], make([]shard, n-cap(b.shards))...)
	}
	rows, shards := b.rows, b.shards[:n]
	parallel(n, func(s int) {
		rows := rows[s*len(rows)/n : (s+1)*len(rows)/n]
		text := slices.Grow(shards[s].text[:0], lineGuess*len(rows))
		refs := slices.Grow(shards[s].refs[:0], len(rows))
		for i := range rows {
			at := len(text)
			text = append(render(text, &rows[i]), '\n')
			refs = append(refs, lineRef{at: rows[i].at, off: uint32(at), n: uint32(len(text) - at)})
		}
		shards[s].text, shards[s].refs = text, refs
	})
	b.shards = shards
}

// bins counts the steps of length step that begin inside a window of
// length span.
func bins(span, step time.Duration) int {
	if span <= 0 {
		return 0
	}
	return int((span-1)/step) + 1
}

// emitSteadyState renders the periodic measurement feeds: SNMP samples,
// inter-PoP performance probes, CDN measurements (with any scenario
// overrides applied), and CDN server load.
func (d *Dataset) emitSteadyState() {
	cfg := d.Config
	start := cfg.Start.Unix()

	// SNMP: router CPU and backbone interface counters every 30 minutes.
	type snmpSeries struct{ router, object, instance string }
	series := make([]snmpSeries, 0, len(d.polled)+2*len(d.igpLinks))
	for _, name := range d.polled {
		series = append(series, snmpSeries{name, "cpu5min", ""})
	}
	for _, l := range d.igpLinks {
		series = append(series, snmpSeries{l.A.Router.Name, "ifutil", l.A.Name}, snmpSeries{l.A.Router.Name, "iferrors", l.A.Name})
	}
	steps, bins5 := bins(cfg.Duration, 30*time.Minute), bins(cfg.Duration, 5*time.Minute)
	p := d.newPeriodic(min(rowBlock, max(steps*len(series), bins5*len(d.ProbePairs), bins5*len(d.Agents))))
	p.start(collector.SourceSNMP, func(dst []byte, r *row) []byte {
		s := &series[r.series]
		return appendSNMP(dst, r.unix(start), s.router, r.form[0], s.object, s.instance, r.v[0])
	})
	for step := 0; step < steps; step++ {
		at := time.Duration(step) * 30 * time.Minute
		sample := func(i int, v float64) {
			p.add(row{at: at, series: int32(i), form: [2]uint8{d.deviceForm()}, v: [3]float64{v}})
		}
		for i := range d.polled {
			sample(i, 20+d.rng.Float64()*30)
		}
		for i := range d.igpLinks {
			sample(len(d.polled)+2*i, 20+d.rng.Float64()*40)
			sample(len(d.polled)+2*i+1, d.rng.Float64()*5)
		}
	}
	p.finish()

	// Inter-PoP performance probes, with scenario loss overrides applied.
	p.start(collector.SourcePerfMon, func(dst []byte, r *row) []byte {
		pair := d.ProbePairs[r.series]
		return appendPerf(dst, r.unix(start), pair[0], r.form[0], pair[1], r.form[1], r.v[0], r.v[1], r.v[2])
	})
	for i, pair := range d.ProbePairs {
		overrides := d.perfLoss[pair[0]+"|"+pair[1]]
		base := 10 + 3*d.rng.Float64()
		for bin := 0; bin < bins5; bin++ {
			loss := d.rng.Float64() * 0.05
			if o, ok := overrides[bin]; ok {
				loss = o
			}
			delay := base + d.rng.Float64()
			tput := 930 + d.rng.Float64()*20
			in := d.deviceForm()
			p.add(row{at: time.Duration(bin) * 5 * time.Minute, series: int32(i),
				form: [2]uint8{in, d.deviceForm()}, v: [3]float64{delay, loss, tput}})
		}
	}
	p.finish()

	// CDN measurements per agent per 5-minute bin with overrides.
	const baseRTT = 40.0
	p.start(collector.SourceKeynote, func(dst []byte, r *row) []byte {
		return appendKeynote(dst, r.unix(start), d.CDNServer, d.Agents[r.series], r.v[0], r.v[1])
	})
	for i, agent := range d.Agents {
		overrides := d.keynoteRTT[agent]
		for bin := 0; bin < bins5; bin++ {
			rtt := baseRTT + d.rng.Float64()*4 - 2
			if o, ok := overrides[bin]; ok {
				rtt = o
			}
			tput := 8800 * baseRTT / rtt * (0.95 + d.rng.Float64()*0.1)
			p.add(row{at: time.Duration(bin) * 5 * time.Minute, series: int32(i), v: [3]float64{rtt, tput}})
		}
	}
	p.finish()

	// CDN server load every 30 minutes, nominal.
	endAt := cfg.Start.Add(cfg.Duration)
	for at := cfg.Start; at.Before(endAt); at = at.Add(30 * time.Minute) {
		d.serverLog(at, "load", d.CDNServer, strconv.Itoa(20+d.rng.Intn(40)))
	}
}
