package chaos

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"grca/internal/replica"
	"grca/internal/store"
	"grca/internal/wal"
)

// ReplicaResult reports one replication fault scenario: a follower WAL
// sink fed through the real shipping protocol (replica.ShipWALOnce →
// replica.Reader → replica.WALSink) with seeded stalls or mid-frame
// connection cuts, then healed and recovered like a promotion would.
type ReplicaResult struct {
	// Store is the healed follower store (a plain wal.Open over the
	// sink's directory, exactly what promotion runs); diagnoses are
	// scored against it.
	Store store.Store
	// Total is the primary's record count; StaleFrontier is the
	// follower's frontier while the fault held — the consistent prefix
	// a lagging replica was serving reads from.
	Total         int
	StaleFrontier int
	// Reconnects counts stream re-establishments; Torn counts
	// deliveries that ended mid-frame (partition only).
	Reconnects int
	Torn       int
	// DigestMatch reports whether the healed follower is byte-identical
	// to the clean store — replication's whole contract: lag and
	// partitions delay visibility, they never change what converges.
	DigestMatch bool
}

// applyStream decodes one shipped byte stream and applies it to the
// sink, stopping at clean EOF or at a torn frame (a connection cut
// mid-frame: the partial frame is discarded undecoded, exactly as the
// live client's reader does). stopAt, when >= 0, stalls the transfer
// once the sink frontier reaches it — a link that stopped draining.
func applyStream(sink *replica.WALSink, data []byte, stopAt int) (torn bool, err error) {
	r := replica.NewReader(wal.NewFrameReader(bytes.NewReader(data)))
	for {
		if stopAt >= 0 && sink.Frontier() >= stopAt {
			return false, nil
		}
		m, err := r.Next()
		if err == io.EOF {
			return false, nil
		}
		if err == wal.ErrTornFrame {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		switch m.Type {
		case replica.MsgHello, replica.MsgHeartbeat, replica.MsgEOF:
			// Framing only; the single-shot shipper has nothing to confirm.
		case replica.MsgWALRec:
			err = sink.WriteRecord(m.Rec)
		case replica.MsgSnapBegin:
			err = sink.BeginSnapshot(m.Next, m.Size)
		case replica.MsgSnapChunk:
			err = sink.WriteSnapshotChunk(m.Chunk)
		case replica.MsgSnapEnd:
			err = sink.EndSnapshot()
		default:
			err = fmt.Errorf("chaos: unexpected stream message type %d", m.Type)
		}
		if err != nil {
			return false, err
		}
	}
}

// shipInto ships the primary's state from the sink's frontier into a
// buffer via the deterministic single-shot shipper.
func shipInto(primDir, bootID string, sink *replica.WALSink) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := replica.ShipWALOnce(primDir, bootID, sink.Frontier(), &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReplicaReplay simulates a read replica under one replication fault
// class and returns the stale view it served plus the healed result:
//
//   - FaultReplicaLag: the stream stalls once LagFraction of the corpus
//     has shipped — a slow or stopped link. The follower serves a
//     consistent prefix until the stream resumes from its frontier.
//   - FaultPartition: PartitionCount times, the connection is severed at
//     a seeded byte offset — usually mid-frame — and the follower
//     reconnects from its frontier through the torn-frame discard path
//     (including snapshot-bootstrap restarts when the cut lands inside
//     a shipped snapshot).
//
// After the fault heals, the remaining stream drains and the follower
// directory is recovered with a plain wal.Open — the promotion path —
// and compared byte-for-byte against the clean store.
func (inj *Injector) ReplicaReplay(clean store.Store, f Fault) (ReplicaResult, error) {
	primDir, err := os.MkdirTemp("", "grca-chaos-replica-prim-")
	if err != nil {
		return ReplicaResult{}, err
	}
	defer os.RemoveAll(primDir) //nolint:errcheck // best-effort temp cleanup
	follDir, err := os.MkdirTemp("", "grca-chaos-replica-foll-")
	if err != nil {
		return ReplicaResult{}, err
	}
	defer os.RemoveAll(follDir) //nolint:errcheck // best-effort temp cleanup

	ins := liveInstances(clean)
	res := ReplicaResult{Total: len(ins)}

	// The lag scenario ships a pure record stream (no snapshots, so the
	// stall point is exact); the partition scenario leaves snapshots
	// behind so seeded cuts also land inside snapshot bootstraps.
	opts := wal.Options{}
	if f == FaultPartition {
		opts.SnapshotEvery = 4 * inj.cfg.CrashBatch
	}
	l, st, _, err := wal.Open(primDir, opts)
	if err != nil {
		return res, fmt.Errorf("chaos: replica primary: %v", err)
	}
	for i, in := range ins {
		st.Add(in)
		if (i+1)%inj.cfg.CrashBatch == 0 {
			if err := l.Commit(); err != nil {
				return res, err
			}
		}
	}
	if err := l.Commit(); err != nil {
		return res, err
	}
	// The primary stays "up" (log unclosed) while shipping: ShipWALOnce
	// reads the flushed segments and snapshots from disk, as the real
	// source does.

	const bootID = "chaos-replica"
	sink, err := replica.OpenWALSink(follDir, 0)
	if err != nil {
		return res, err
	}

	switch f {
	case FaultReplicaLag:
		stream, err := shipInto(primDir, bootID, sink)
		if err != nil {
			return res, err
		}
		stall := int(inj.cfg.LagFraction * float64(len(ins)))
		if _, err := applyStream(sink, stream, stall); err != nil {
			return res, err
		}
		res.StaleFrontier = sink.Frontier()
		res.Reconnects = 1 // the single resume after the stall clears
	case FaultPartition:
		rng := inj.rng("partition")
		for k := 0; k < inj.cfg.PartitionCount; k++ {
			stream, err := shipInto(primDir, bootID, sink)
			if err != nil {
				return res, err
			}
			if len(stream) == 0 {
				break
			}
			cut := 1 + rng.Intn(len(stream))
			torn, err := applyStream(sink, stream[:cut], -1)
			if err != nil {
				return res, err
			}
			if torn {
				res.Torn++
			}
			res.Reconnects++
		}
		res.StaleFrontier = sink.Frontier()
	default:
		return res, fmt.Errorf("chaos: %s is not a replication fault", f)
	}

	// Heal: the stream re-establishes from the follower's frontier and
	// drains to the primary's end.
	stream, err := shipInto(primDir, bootID, sink)
	if err != nil {
		return res, err
	}
	if torn, err := applyStream(sink, stream, -1); err != nil {
		return res, err
	} else if torn {
		return res, fmt.Errorf("chaos: heal stream ended torn")
	}
	if err := sink.Close(); err != nil {
		return res, err
	}
	if err := l.Close(); err != nil {
		return res, err
	}

	fl, fst, _, err := wal.Open(follDir, wal.Options{})
	if err != nil {
		return res, fmt.Errorf("chaos: follower recovery: %v", err)
	}
	if err := fl.Close(); err != nil {
		return res, err
	}
	res.Store = fst
	res.DigestMatch = wal.StoreDigest(fst) == wal.StoreDigest(clean)
	return res, nil
}
