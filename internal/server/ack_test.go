package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"grca/internal/collector"
	"grca/internal/event"
	"grca/internal/platform"
	"grca/internal/realtime"
	"grca/internal/simnet"
	"grca/internal/wire"
)

// oracleAck is the ack the parent wrote for a batch whose streaming
// processor reported resp and diagnosed xs: writeJSON of the reflective
// IngestResponse.
func oracleAck(resp IngestResponse, xs []streamed) []byte {
	for _, x := range xs {
		dj := diagnosisJSON(x.d)
		dj.App = x.app
		resp.Diagnoses = append(resp.Diagnoses, dj)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// ackOracle is a second streaming processor over a finalized server's
// store, engines and graces, fed each batch the server acks after the
// server has committed it: what it diagnoses is what the server's own
// processor diagnosed for that batch.
type ackOracle struct {
	proc   *realtime.Processor
	rootOf map[string]string
}

func newAckOracle(s *Server) *ackOracle {
	sv := s.serving.Load()
	var streams []realtime.Stream
	for _, a := range sv.apps {
		streams = append(streams, realtime.Stream{Name: a.Name, Engine: a.eng, Grace: realtime.GraceFor(a.eng.Graph, realtime.MaxEventDuration)})
	}
	return &ackOracle{proc: realtime.NewStreams(s.st, streams...), rootOf: sv.rootOf}
}

// ack observes one committed batch and returns its oracle ack.
func (o *ackOracle) ack(ins []event.Instance) (body []byte, diagnosed, late int) {
	resp := IngestResponse{Stored: len(ins)}
	var xs []streamed
	for i := range ins {
		ds, n := o.proc.ObserveStored(&ins[i])
		resp.Late += n
		for _, d := range ds {
			xs = append(xs, streamed{o.rootOf[d.Symptom.Name], d})
		}
	}
	return oracleAck(resp, xs), len(xs), resp.Late
}

// corpusEvents generates cfg and returns its bundle and every event its
// batch pipeline stores: in End order, the order bench replays them in,
// when inOrder, else in store-ID order, feed by feed, so that evidence
// arrives after the symptoms it explains.
func corpusEvents(t *testing.T, cfg simnet.Config, inOrder bool) (platform.Bundle, []event.Instance) {
	t.Helper()
	d, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := platform.BundleFromDataset(d)
	sys, err := b.Assemble(platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ins []event.Instance
	sys.Store.SnapshotTo(func(int, int, int) error { return nil }, func(in *event.Instance) error { //nolint:errcheck // neither callback fails
		ins = append(ins, *in)
		return nil
	})
	if inOrder {
		sort.SliceStable(ins, func(i, j int) bool { return ins[i].End.Before(ins[j].End) })
	}
	return b, ins
}

// finalizedServer opens a server on a fresh dir for b and finalizes it
// with no feeds: the events arrive afterwards, as event batches.
func finalizedServer(t *testing.T, b platform.Bundle) (*Server, *httptest.Server) {
	t.Helper()
	s := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	})
	if code, body := post(t, ts, "/v1/finalize", struct{}{}); code != http.StatusOK {
		t.Fatalf("finalize: %d %s", code, body)
	}
	return s, ts
}

// TestAckBytesMatchOracle: every ingest ack is byte for byte the parent's
// reflective one, writeJSON of an IngestResponse whose Diagnoses are
// diagnosisJSON of what the batch drained. Three corpora are streamed
// into finalized servers as wire event batches (corpusEvents): the test
// bundle's events and a denser corpus with all four applications in End
// order, and a corpus with all four applications in store-ID order. Each
// must produce acks with and without diagnoses, and the last, alone, acks
// with late counts. The crafted diagnoses, full of what JSON escapes, go
// through the same splice.
func TestAckBytesMatchOracle(t *testing.T) {
	t.Run("crafted", func(t *testing.T) {
		xs := craftedDiagnoses()
		h := newSSEHub()
		var entries []*streamEntry
		for _, x := range xs {
			entries = append(entries, h.publish(x.app, x.d))
		}
		for _, resp := range []IngestResponse{{Stored: 9}, {Stored: 9, Late: 4}} {
			for _, n := range []int{0, 1, len(xs)} {
				want := oracleAck(resp, xs[:n])
				rec := httptest.NewRecorder()
				writeAck(rec, taskResult{status: http.StatusOK, resp: resp, entries: entries[:n]})
				if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
					t.Errorf("%+v, %d diagnoses: %d %q", resp, n, rec.Code, rec.Header().Get("Content-Type"))
				}
				if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
					t.Errorf("%+v, %d diagnoses:\n got %q\nwant %q", resp, n, got, want)
				}
			}
		}
	})

	for _, c := range []struct {
		name    string
		cfg     simnet.Config
		inOrder bool // post the events in End order, else in store-ID order
	}{
		{"bundle/end-order", simnet.Config{
			Seed: 7, PoPs: 2, PERsPerPoP: 2, SessionsPerPER: 4,
			Duration: 2 * 24 * time.Hour, BGPFlapIncidents: 40,
		}, true},
		{"mixed/id-order", simnet.Config{
			Seed: 1, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 4, MVPNFraction: 0.4,
			Duration:         4 * 24 * time.Hour,
			BGPFlapIncidents: 30, CDNIncidents: 20, PIMIncidents: 20, BackboneIncidents: 20,
		}, false},
		{"dense-mixed/end-order", simnet.Config{
			Seed: 7, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
			MVPNFraction: 0.4, Duration: 6 * 24 * time.Hour,
			BGPFlapIncidents: 120, CDNIncidents: 60, PIMIncidents: 60,
			BackboneIncidents: 60,
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, ins := corpusEvents(t, c.cfg, c.inOrder)
			s, ts := finalizedServer(t, b)
			o := newAckOracle(s)
			var acks, quiet, diagnosed, late int
			for lo := 0; lo < len(ins); lo += 50 {
				body := wire.AppendEvents(nil, ins[lo:min(lo+50, len(ins))])
				batch, err := wire.Decode(body)
				if err != nil {
					t.Fatal(err)
				}
				s.dispatchMu.Lock()
				first := s.nextID
				s.dispatchMu.Unlock()
				for j := range batch.Events {
					batch.Events[j].ID = first + j
				}
				code, got := postWire(t, ts, body)
				if code != http.StatusOK {
					t.Fatalf("ingest: %d %s", code, got)
				}
				want, n, l := o.ack(batch.Events)
				if !bytes.Equal(got, want) {
					t.Fatalf("ack %d:\n got %s\nwant %s", acks, got, want)
				}
				acks++
				diagnosed += n
				late += l
				if n == 0 {
					quiet++
				}
			}
			if quiet == 0 || quiet == acks || (late > 0) == c.inOrder {
				t.Errorf("%d acks, %d of them without diagnoses, %d late, streamed in order %v: the corpus misses a case",
					acks, quiet, late, c.inOrder)
			}
			t.Logf("%d acks, %d without diagnoses, %d diagnoses, %d late", acks, quiet, diagnosed, late)
		})
	}
}

// ackSymptoms is how many symptoms each BenchmarkIngestAck batch drains.
const ackSymptoms = 16

// BenchmarkIngestAck prices one POST /v1/ingest, through the handler, of
// a wire batch that drains ackSymptoms BGP-flap symptoms on a finalized
// server: admission, journal, store, the streaming processor, the
// symptoms' diagnoses and the ack that carries them. Each batch holds the
// symptoms and a tick two days past them, which ends their grace.
func BenchmarkIngestAck(b *testing.B) {
	_, bundle := testBundle(b)
	s, err := Open(Config{DataDir: b.TempDir(), Bundle: bundle})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck // benchmark teardown
	h := s.Handler()
	send := func(path, contentType string, body []byte) []byte {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	for _, src := range collector.Sources {
		if feed, ok := bundle.Feeds[src]; ok {
			send("/v1/ingest", wire.ContentType, wire.AppendFeed(nil, src, feed))
		}
	}
	send("/v1/finalize", "application/json", []byte("{}"))

	bodies := make([][]byte, b.N)
	at := bundle.Start.Add(bundle.Duration).Add(time.Hour)
	for i := range bodies {
		var ins []event.Instance
		for j := 0; j < ackSymptoms; j++ {
			t0 := at.Add(time.Duration(j) * time.Minute)
			in, err := EventJSON{
				Name: event.EBGPFlap, Start: t0, End: t0.Add(time.Minute),
				Loc: LocationJSON{Type: "router:neighbor", A: fmt.Sprintf("pop%02d-per%d", j%2, 1+j/2%2), B: fmt.Sprintf("10.99.%d.1", j)},
			}.instance()
			if err != nil {
				b.Fatal(err)
			}
			ins = append(ins, in)
		}
		tick := at.Add(48 * time.Hour)
		in, err := EventJSON{Name: "synthetic tick", Start: tick, End: tick, Loc: LocationJSON{Type: "router", A: "load-r0"}}.instance()
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = wire.AppendEvents(nil, append(ins, in))
		at = tick.Add(time.Hour)
	}
	var last []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := range bodies {
		last = send("/v1/ingest", wire.ContentType, bodies[i])
	}
	b.StopTimer()
	var ack IngestResponse
	if err := json.Unmarshal(last, &ack); err != nil {
		b.Fatal(err)
	}
	if len(ack.Diagnoses) != ackSymptoms {
		b.Fatalf("the last ack carries %d diagnoses, want %d", len(ack.Diagnoses), ackSymptoms)
	}
}
