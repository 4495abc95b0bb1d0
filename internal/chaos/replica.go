package chaos

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/replica"
	"grca/internal/server"
	"grca/internal/store"
	"grca/internal/wal"
)

// streamFault is what the proxy does to one journal stream connection:
// sever it once at bytes have passed, or — stallAt positive — hold it open
// behind the journal record of that sequence until the scenario heals it.
type streamFault struct {
	at      int64
	stallAt int
}

// proxy stands between a follower and its primary. Every request passes
// through; the journal stream's connections meet the faults in order, one
// each, and later ones pass whole.
type proxy struct {
	primary string
	faults  []streamFault
	srv     *httptest.Server

	conns   atomic.Int32
	torn    atomic.Int32 // connections severed inside a frame
	stalled chan int     // the sequence a stall holds its connection behind
	heal    chan struct{}
	healed  sync.Once
}

func newProxy(primary *node, faults []streamFault) *proxy {
	u, _ := url.Parse(primary.url) // a node's own loopback URL
	p := &proxy{primary: primary.url, faults: faults, stalled: make(chan int, 1), heal: make(chan struct{})}
	mux := http.NewServeMux()
	mux.Handle("/", httputil.NewSingleHostReverseProxy(u))
	mux.HandleFunc("/v1/replication/journal", p.journal)
	p.srv = httptest.NewServer(mux)
	return p
}

// healNow ends a stall, once.
func (p *proxy) healNow() { p.healed.Do(func() { close(p.heal) }) }

// close stops the proxy once its follower has left.
func (p *proxy) close() {
	p.healNow()
	p.srv.Close()
}

// journal relays one stream connection frame by frame, through its fault.
// A fault ends the connection with an abort: the follower sees it reset,
// not a clean end.
func (p *proxy) journal(w http.ResponseWriter, r *http.Request) {
	var fault *streamFault
	if k := int(p.conns.Add(1)) - 1; k < len(p.faults) {
		fault = &p.faults[k]
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p.primary+r.URL.RequestURI(), nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	flush := w.(http.Flusher).Flush
	fr := wal.NewFrameReader(resp.Body)
	var sent int64
	for {
		payload, err := fr.Next()
		if err != nil {
			return // the primary ended the stream, or the follower left
		}
		frame := wal.AppendFrame(nil, payload)
		m, perr := replica.ParseMsg(payload)
		if fault != nil && fault.stallAt == 0 && perr == nil && m.Type == replica.MsgHeartbeat {
			// The primary has shipped everything short of the cut: make it on
			// this boundary.
			fault.at = sent
		}
		if fault != nil && fault.stallAt == 0 && sent+int64(len(frame)) > fault.at {
			cut := frame[:fault.at-sent]
			w.Write(cut) //nolint:errcheck // the connection ends here either way
			flush()
			if len(cut) > 0 {
				p.torn.Add(1)
			}
			panic(http.ErrAbortHandler)
		}
		if _, err := w.Write(frame); err != nil {
			return
		}
		flush()
		sent += int64(len(frame))
		// The record of sequence stallAt, or the first past it, always ships:
		// the active segment, never dropped, holds the last one.
		if fault != nil && fault.stallAt > 0 && perr == nil && m.Type == replica.MsgJournalRec {
			if r, err := wal.ParseJournalRecord(m.Rec); err == nil && r.Kind != wal.JournalSegmentKind && r.Seq >= fault.stallAt {
				p.stalled <- r.Seq
				<-p.heal
				panic(http.ErrAbortHandler)
			}
		}
	}
}

// applied polls the follower's replication status until it has applied
// the journal through sequence seq, and answers the event ID its replay
// stands at.
func applied(follower *node, seq int) (int, error) {
	for began := obs.Now(); obs.Since(began) < time.Minute; time.Sleep(10 * time.Millisecond) {
		var st server.ReplicationStatusJSON
		if _, err := follower.call("/v1/replication/status", "", nil, &st); err != nil {
			return 0, err
		}
		if st.AppliedSeq != nil && *st.AppliedSeq == seq && len(st.ShardLag) == 1 {
			return st.ShardLag[0].WALNext, nil
		}
	}
	return 0, fmt.Errorf("chaos: the follower never applied the journal through sequence %d", seq)
}

// ReplicaReplay runs a read replica under one replication fault class. A
// primary (server.Open, checkpointing every 4×CrashBatch events) is
// finalized and fed the clean corpus in ID order; then a follower
// (server.Config.ReplicaOf) attaches through a proxy on its journal
// stream:
//
//   - FaultReplicaLag: the stream stalls behind the record of the batch
//     LagFraction of the way through the primary's journal — a link that
//     stopped draining, the connection held open. Once the follower has
//     applied what reached it, the event count it serves reads at is
//     StaleFrontier, against the primary's Total; then the stall heals.
//   - FaultPartition: PartitionCount connections are severed, each at a
//     seeded byte offset — usually mid-frame — and the follower reconnects
//     from its applied sequence, through the torn-frame discard path and,
//     when the cut lands inside the store checkpoint a fresh follower is
//     sent ahead of the retained tail, through that checkpoint again.
//
// Healed, the follower must catch up to a store byte-identical to the
// primary's and the clean one (DigestMatch), answering /v1/breakdown with
// the primary's bytes (BreakdownMatch). It returns the scenario block and
// the follower's store.
func (inj *Injector) ReplicaReplay(b platform.Bundle, clean store.Store, f Fault) (Scenario, store.Store, error) {
	scen := Scenario{Fault: string(f)}
	if f != FaultReplicaLag && f != FaultPartition {
		return scen, nil, fmt.Errorf("chaos: %s is not a replication fault", f)
	}
	root, err := os.MkdirTemp("", "grca-chaos-replica-")
	if err != nil {
		return scen, nil, err
	}
	defer os.RemoveAll(root) //nolint:errcheck // best-effort temp cleanup

	prim, err := openNode(server.Config{DataDir: filepath.Join(root, "primary"), Bundle: b, SnapshotEvery: 4 * inj.cfg.CrashBatch})
	if err != nil {
		return scen, nil, err
	}
	defer prim.close() //nolint:errcheck // closed below; this covers the error paths
	if err := prim.finalize(); err != nil {
		return scen, nil, err
	}
	if err := prim.post(wireBatches(clean, inj.cfg.CrashBatch), nil); err != nil {
		return scen, nil, err
	}
	var meta server.ReplicationMetaJSON
	if _, err := prim.call("/v1/replication/meta", "", nil, &meta); err != nil {
		return scen, nil, err
	}
	scen.Total = meta.WALNext[0]

	// The primary is idle from here on, so the stream a connection carries
	// is a function of the follower's resume point alone, and so is where
	// each offset below lands. Heartbeats, the one timed frame, follow the
	// last record.
	var faults []streamFault
	if f == FaultReplicaLag {
		faults = []streamFault{{stallAt: max(int(inj.cfg.LagFraction*float64(meta.Sealed[0])), 1)}}
	} else {
		// A connection carries about the journal bytes the follower lacks (a
		// checkpoint stands in for the dropped segments), so cuts this short
		// land inside the stream; one that would not is made where the
		// stream runs dry (journal).
		rng := inj.rng("partition")
		for k := 0; k < inj.cfg.PartitionCount; k++ {
			faults = append(faults, streamFault{at: 1 + rng.Int63n(max(meta.JournalBytes[0]/int64(inj.cfg.PartitionCount+1), 1))})
		}
	}
	px := newProxy(prim, faults)
	defer px.close()
	fol, err := openNode(server.Config{DataDir: filepath.Join(root, "follower"), Bundle: b, ReplicaOf: px.srv.URL})
	if err != nil {
		return scen, nil, err
	}
	defer fol.close() //nolint:errcheck // closed below; this covers the error paths
	if f == FaultReplicaLag {
		var seq int
		select {
		case seq = <-px.stalled:
		case <-time.After(time.Minute):
			return scen, nil, fmt.Errorf("chaos: the follower's stream never reached the stall")
		}
		if scen.StaleFrontier, err = applied(fol, seq); err != nil {
			return scen, nil, err
		}
		px.healNow()
	}
	if _, err := applied(fol, meta.Sealed[0]); err != nil {
		return scen, nil, err
	}
	scen.Reconnects, scen.Torn = len(faults), int(px.torn.Load())

	want, err := prim.state()
	got, ferr := fol.state()
	if err = errors.Join(err, ferr); err != nil {
		return scen, nil, err
	}
	scen.DigestMatch = got.digest == want.digest && want.digest == wal.StoreDigest(clean)
	scen.BreakdownMatch = got.breakdown == want.breakdown
	st := fol.srv.Store()
	if err := fol.close(); err != nil {
		return scen, nil, err
	}
	px.close()
	return scen, st, prim.close()
}
