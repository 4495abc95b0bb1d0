package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"path/filepath"

	"grca/internal/event"
	"grca/internal/realtime"
	"grca/internal/rollup"
	"grca/internal/server"
	"grca/internal/wal"
	"grca/internal/wire"
)

// shadowBatchReq is the first request ID of the batch budget's spans;
// the diagnosis budget's spans number their symptoms from 1.
const shadowBatchReq = 1_000_000

// batchStages are the stages of one ingest batch, in the order the
// server runs them.
var batchStages = []string{
	"body read", "wire.Decode", "Journal.AppendNoSync+Sync", "store.Put x1000",
	"Log.Commit", "realtime.ObserveStored x apps", "rollup.ObserveEvent x1000", "response encode",
}

// shadowBatch is the budget of one 1000-event binary batch: it calls the
// public functions the server's handler, applier and finisher call, in
// their order, on the same growing store (1000 batches, snapshots every
// 50000 records), with a span per stage. Each stage's median is set
// against the handler's measured median; what the stages do not explain —
// dispatch, queues, goroutine hand-offs, locks — is the residual share.
func (ls *layers) shadowBatch(handlerUS float64) error {
	dir := filepath.Join(ls.dir, "shadow")
	log, st, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncBatch, SnapshotEvery: 50000})
	if err != nil {
		return err
	}
	defer log.Close() //nolint:errcheck // scratch log
	jour, err := wal.OpenJournal(filepath.Join(dir, "journal.log"))
	if err != nil {
		return err
	}
	defer jour.Close() //nolint:errcheck // scratch journal
	ref, err := buildReference(ls.small)
	if err != nil {
		return err
	}
	procs := make([]*realtime.Processor, len(apps))
	for i, a := range apps {
		procs[i] = realtime.NewOnStore(st, ref.view, a.graph, realtime.GraceFor(a.graph, maxEventDuration))
	}
	roll := rollup.New(rollup.Config{})

	ups := newUpStream(ls.small, ls.seed, ls.ups.start)
	tr := ls.shadow
	perStage := map[string][]float64{}
	var stageErr error
	stored := make([]*event.Instance, 0, bulkBatch)
	for b := 0; b < 1000; b++ {
		body := wire.AppendEvents(nil, ups.batch(bulkBatch))
		req := shadowBatchReq + b
		root := tr.begin("batch", 0, req)
		stage := func(i int, fn func() error) {
			id := tr.begin(batchStages[i], root, req)
			if err := fn(); err != nil && stageErr == nil {
				stageErr = err
			}
			tr.end(id)
		}
		var buf []byte
		var batch wire.Batch
		stage(0, func() error {
			buf = make([]byte, len(body))
			_, err := io.ReadFull(bytes.NewReader(body), buf)
			return err
		})
		stage(1, func() (err error) { batch, err = wire.Decode(buf); return err })
		stage(2, func() error {
			if err := jour.AppendNoSync(buf); err != nil {
				return err
			}
			return jour.Sync()
		})
		stage(3, func() error {
			stored = stored[:0]
			id := st.NextID()
			for j := range batch.Events {
				in := batch.Events[j]
				in.ID = id + j
				p, err := st.Put(in)
				if err != nil {
					return err
				}
				stored = append(stored, p)
			}
			return nil
		})
		stage(4, log.Commit)
		stage(5, func() error {
			for _, in := range stored {
				for _, p := range procs {
					p.ObserveStored(in)
				}
			}
			return nil
		})
		stage(6, func() error {
			for _, in := range stored {
				roll.ObserveEvent(in)
			}
			return nil
		})
		stage(7, func() error {
			return json.NewEncoder(httptest.NewRecorder()).Encode(server.IngestResponse{Stored: len(stored)})
		})
		tr.end(root)
		if stageErr != nil {
			return stageErr
		}
	}
	// Self time per stage span: the stages do not nest, so a stage's self
	// time is its duration, and the batch span's self time is the loop's
	// own bookkeeping.
	spans := tr.snapshot()
	self := selfTimes(spans)
	var loop []float64
	for _, s := range spans {
		switch {
		case s.Req < shadowBatchReq: // a span of the diagnosis budget
		case s.Name == "batch":
			loop = append(loop, us(self[s.ID]))
		default:
			perStage[s.Name] = append(perStage[s.Name], us(self[s.ID]))
		}
	}
	ls.e.printf("\n-- where one 1000-event binary batch goes (server.handler.ingest.us_per_batch = %.1f µs, median of 500 batches into a store growing to 1e6)\n", handlerUS)
	covered := 0.0
	for _, name := range batchStages {
		m := median(perStage[name])
		covered += m
		ls.e.printf("   %-40s %12.1f µs %5.1f%%\n", name, m, 100*m/handlerUS)
	}
	ls.out["server.pipeline.residual_share"] = 1 - covered/handlerUS
	ls.e.printf("   %-40s %12.1f µs %5.1f%%  (dispatch, queues, finisher, locks)\n", "residual", handlerUS-covered, 100*(1-covered/handlerUS))
	ls.e.printf("   (shadow loop bookkeeping: %.1f µs per batch, not counted)\n", median(loop))
	return nil
}
