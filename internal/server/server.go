package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/wal"
	"grca/internal/wire"
)

// Per-endpoint latency and inflight-request metrics; 429s and queue
// depth live in pipeline.go.
var (
	mHTTPInflight = obs.GetGauge("server.http.inflight")
	mIngestSecs   = obs.GetHistogram("server.http.ingest.seconds", obs.LatencyBuckets)
	mDiagnoseSecs = obs.GetHistogram("server.http.diagnose.seconds", obs.LatencyBuckets)
	mEventsSecs   = obs.GetHistogram("server.http.events.seconds", obs.LatencyBuckets)
	mStatsSecs    = obs.GetHistogram("server.http.stats.seconds", obs.LatencyBuckets)
)

// maxBody bounds one request body (a feed batch of raw lines); matched
// to the collector's own 4MiB line-scanner ceiling with framing slack. It
// also bounds the lines a journaled feed record may declare (inflateFeed).
const maxBody = 8 << 20

// Handler returns the service's HTTP API:
//
//	POST /v1/ingest         one batch of raw feed lines or normalized events
//	POST /v1/finalize       close the feeds, build the view, start serving
//	POST /v1/diagnose       diagnose one stored symptom (or all) for an app
//	GET  /v1/events         list stored events (?name=&limit=&after=)
//	GET  /v1/stats          phase, store, collector, and metrics snapshot
//	GET  /v1/breakdown      live root-cause breakdown (?app=&window=)
//	GET  /v1/trend          per-bin series (?name= | ?app=&cause=; &bin=&from=&to=)
//	GET  /v1/causes         raw cause labels with counts (?app=)
//	GET  /v1/drilldown/{id} traced diagnosis + co-located events (?app=&window=&level=)
//	GET  /v1/recent         recent streaming diagnoses (?after=&limit=)
//	GET  /v1/stream         SSE diagnosis stream (?after= | ?replay=)
//	GET  /browser/          embedded Result Browser dashboard
//	GET  /healthz           liveness + phase
//
// With Config.Debug, expvar and pprof are additionally mounted under
// /debug/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		method, handle := rt.method, rt.fn
		fn := func(w http.ResponseWriter, r *http.Request) {
			if r.Method != method {
				writeErr(w, http.StatusMethodNotAllowed, "%s required", method)
				return
			}
			handle(w, r)
		}
		if rt.hist != nil {
			fn = s.timed(rt.hist, fn)
		}
		mux.HandleFunc(rt.path, fn)
	}
	if s.cfg.Debug {
		mux.Handle("/debug/", obs.DebugMux())
	}
	// After a promotion the replica's old pipeline stays up for in-flight
	// requests, but every new request belongs to the promoted primary.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if node := s.promoted.Load(); node != nil {
			node.h.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// route is one API endpoint: its path, the one method it answers (any
// other gets a 405), and the latency histogram it is timed under. A nil
// hist mounts it outside timed, with no request timeout.
type route struct {
	path, method string
	hist         *obs.Histogram
	fn           http.HandlerFunc
}

func (s *Server) routes() []route {
	const get, post = http.MethodGet, http.MethodPost
	return []route{
		{"/v1/ingest", post, mIngestSecs, s.handleIngest},
		{"/v1/finalize", post, mIngestSecs, s.handleFinalize},
		{"/v1/diagnose", post, mDiagnoseSecs, s.handleDiagnose},
		{"/v1/events", get, mEventsSecs, s.handleEvents},
		{"/v1/stats", get, mStatsSecs, s.handleStats},
		{"/v1/breakdown", get, mBrowserSecs, s.handleBreakdown},
		{"/v1/trend", get, mBrowserSecs, s.handleTrend},
		{"/v1/causes", get, mBrowserSecs, s.handleCauses},
		{"/v1/drilldown/", get, mBrowserSecs, s.handleDrilldown},
		{"/v1/recent", get, mBrowserSecs, s.handleRecent},
		// The stream outlives any request timeout; it is bounded by the
		// client and server lifetimes instead.
		{"/v1/stream", get, nil, s.handleStream},
		{"/v1/replication/status", get, mStatsSecs, s.handleReplStatus},
		{"/v1/replication/meta", get, mStatsSecs, s.handleReplMeta},
		// The replication stream lives until the follower disconnects, and a
		// promotion reopens the data dir — neither fits under the request
		// timeout.
		{"/v1/replication/journal", get, nil, s.handleReplJournal},
		{"/v1/replication/promote", post, nil, s.handleReplPromote},
		{"/browser/", get, nil, s.handleDashboard},
		{"/healthz", get, nil, s.handleHealthz},
	}
}

// timed wraps a handler with the inflight gauge, a request-scoped
// timeout, and a latency histogram.
func (s *Server) timed(h *obs.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		began := obs.Now()
		mHTTPInflight.Add(1)
		defer mHTTPInflight.Add(-1)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		fn(w, r.WithContext(ctx))
		h.ObserveDuration(obs.Since(began))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorJSON{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		s.redirectToPrimary(w, r)
		return
	}
	var t task
	// Content negotiation: the compact binary batch format rides the same
	// endpoint under its own media type; everything else is the JSON
	// IngestRequest.
	if strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType) {
		body, err := readBody(w, r)
		if err != nil {
			writeBodyErr(w, err)
			return
		}
		b, err := wire.Decode(body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		switch b.Kind {
		case wire.KindFeed:
			if !knownSource(b.Source) {
				writeErr(w, http.StatusBadRequest, "unknown source %q", b.Source)
				return
			}
			t = feedTask(b.Source, []byte(b.Lines))
		case wire.KindEvents:
			if len(b.Events) == 0 {
				writeErr(w, http.StatusBadRequest, "empty event batch")
				return
			}
			t = eventTask(b.Events, b.Block)
		}
		s.finishIngest(w, r, t)
		return
	}
	var req IngestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(&req); err != nil {
		writeBodyErr(w, err)
		return
	}
	switch {
	case req.Source != "" && len(req.Events) == 0:
		if !knownSource(req.Source) {
			writeErr(w, http.StatusBadRequest, "unknown source %q", req.Source)
			return
		}
		t = feedTask(req.Source, []byte(req.Lines))
	case req.Source == "" && len(req.Events) > 0:
		ins, err := decodeEvents(req.Events)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		t = eventTask(ins, wire.AppendEventBlock(nil, ins))
	default:
		writeErr(w, http.StatusBadRequest, "provide either source+lines or events")
		return
	}
	s.finishIngest(w, r, t)
}

// eventTask is a validated event batch with its journal body: the events
// as one event block — a wire batch's as it arrived, a JSON batch's
// encoded in the handler's goroutine, not under dispatchMu. The block is
// canonical, so the same events journal to the same bytes whichever API
// carried them.
func eventTask(ins []event.Instance, block []byte) task {
	return task{kind: wal.JournalEventKind, events: ins, raw: block}
}

// feedTask is a validated feed batch with its journal body: the lines as
// one DEFLATE stream, whichever API they arrived on, so the same lines
// journal to the same bytes. Like a JSON batch's block it is encoded in the
// handler's goroutine, not under dispatchMu; the lines themselves are what
// admission parses.
func feedTask(source string, lines []byte) task {
	return task{kind: wal.JournalFeedKind, source: source, lines: lines, raw: appendFeedRecord(nil, lines)}
}

// writeBodyErr answers a request whose body could not be read or decoded:
// 413 when it ran into the maxBody cap, 400 otherwise.
func writeBodyErr(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", tooLarge.Limit)
		return
	}
	writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
}

// readBody reads the bounded request body in one allocation when the
// client sent a Content-Length (io.ReadAll's incremental growth copies a
// large batch several times over).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, maxBody)
	if n := r.ContentLength; n > 0 && n <= maxBody {
		buf := make([]byte, n)
		if _, err := io.ReadFull(rd, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return io.ReadAll(rd)
}

func (s *Server) finishIngest(w http.ResponseWriter, r *http.Request, t task) {
	res := s.dispatch(r.Context(), t)
	if res.err != nil {
		if res.status == http.StatusTooManyRequests {
			// Retry-After is derived from the pipeline's current depth at
			// rejection time, so clients back off proportionally to the
			// overload instead of hammering a constant cadence.
			ra := res.retryAfter
			if ra < 1 {
				ra = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(ra))
		}
		writeErr(w, res.status, "%v", res.err)
		return
	}
	writeJSON(w, res.status, res.resp)
}

func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		s.redirectToPrimary(w, r)
		return
	}
	res := s.dispatch(r.Context(), task{kind: wal.JournalFinalizeKind})
	if res.err != nil {
		writeErr(w, res.status, "%v", res.err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"phase": "serving"})
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	var req DiagnoseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeBodyErr(w, err)
		return
	}
	sv := s.serving.Load()
	if sv == nil {
		writeErr(w, http.StatusConflict, "not finalized: POST /v1/finalize first")
		return
	}
	a := sv.app(req.App)
	if a == nil {
		writeErr(w, http.StatusBadRequest, "unknown application %q", req.App)
		return
	}
	diagnose := a.eng.Diagnose
	if req.Trace {
		diagnose = a.eng.DiagnoseTraced
	}
	resp := DiagnoseResponse{App: req.App, Diagnoses: []DiagnosisJSON{}}
	switch {
	case req.All:
		for _, sym := range s.st.All(a.eng.Graph.Root) {
			resp.Diagnoses = append(resp.Diagnoses, diagnosisJSON(diagnose(sym)))
		}
	default:
		sym, ok := s.st.Get(req.ID)
		if !ok {
			writeErr(w, http.StatusNotFound, "no event with id %d", req.ID)
			return
		}
		if sym.Name != a.eng.Graph.Root {
			writeErr(w, http.StatusBadRequest, "event %d is %q, not the %q symptom %q",
				req.ID, sym.Name, req.App, a.eng.Graph.Root)
			return
		}
		resp.Diagnoses = append(resp.Diagnoses, diagnosisJSON(diagnose(sym)))
	}
	writeJSON(w, http.StatusOK, resp)
}

// Event listing pagination: responses are bounded regardless of store
// size — a 100k-event store answers in pages, never one giant array.
const (
	defaultEventsPage = 1000
	maxEventsPage     = 10000
)

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" && !q.Has("limit") && !q.Has("after") {
		first, last, _ := s.st.Span()
		writeJSON(w, http.StatusOK, map[string]any{
			"names": s.st.Names(), "events": s.st.Len(),
			"span": map[string]any{"first": first, "last": last},
		})
		return
	}
	limit := defaultEventsPage
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		if n > 0 {
			limit = n
		}
	}
	if limit > maxEventsPage {
		limit = maxEventsPage
	}
	// Cursor: return live instances with ID > after, in insertion order;
	// resume from the returned next cursor.
	after := -1
	if v := q.Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad after %q", v)
			return
		}
		after = n
	}
	ins, more := s.st.ScanAfter(name, after, limit)
	out := make([]EventJSON, 0, len(ins))
	for _, in := range ins {
		out = append(out, eventJSON(in))
	}
	resp := map[string]any{"name": name, "events": out, "more": more}
	if more && len(ins) > 0 {
		resp["next"] = ins[len(ins)-1].ID
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	first, last, _ := s.st.Span()
	// The collector's tallies are written by feed loads (and a follower's
	// journal apply) under dispatchMu.
	s.dispatchMu.Lock()
	sources := s.coll.Summary()
	s.dispatchMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"phase":    s.phase(),
		"events":   s.st.Len(),
		"span":     map[string]any{"first": first, "last": last},
		"recovery": s.recovery,
		"sources":  sources,
		"pipeline": map[string]any{
			"queue_depth":    len(s.queue),
			"queue_capacity": cap(s.queue),
		},
		"metrics": obs.Default().Snapshot(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "phase": s.phase()})
}

func (s *Server) phase() string {
	if s.isFinalized() {
		return "serving"
	}
	return "loading"
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

// Start listens on addr and serves the API until Shutdown. It returns
// the bound address (addr may carry port 0).
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	//lint:ignore goroutinelife lifecycle lives in net/http: Shutdown/Close stops Serve via the listener
	go s.httpSrv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return ln.Addr().String(), nil
}

// Shutdown drains gracefully: stop accepting work, let in-flight requests
// finish, drain the commit pipeline, force-drain the streaming processor,
// roll and checkpoint, drop the journal segments that covers, and close
// the journal. Safe to call once; the ctx bounds the HTTP drain.
func (s *Server) Shutdown(ctx context.Context) error {
	close(s.closing)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	if s.isFollower() {
		return s.shutdownFollower(ctx, err)
	}
	// Closing the queue under dispatchMu excludes in-flight dispatchers:
	// anyone who passed the closing check has finished enqueueing before
	// we close, anyone after sees closing first. The applier then closes
	// the observer's inbox behind its last group.
	s.dispatchMu.Lock()
	close(s.queue)
	s.dispatchMu.Unlock()
	<-s.observed
	s.serving.Load().close()
	if e := s.closeJournal(s.isFinalized()); e != nil && err == nil {
		err = e
	}
	return err
}

// closeJournal is the tail of every shutdown, a primary's and a
// follower's seal. With checkpoint — a finalized primary, or a follower
// being promoted to one — the journal is rolled and the store
// checkpointed, so that the next boot stands on the checkpoint alone;
// otherwise (a follower, whose journal rolls only where its primary's
// did) the journal is synced and the next boot replays its active
// segment. Then the journal segments the checkpoints cover are dropped and
// the journal is closed. Callers have stopped every writer.
func (s *Server) closeJournal(checkpoint bool) error {
	var err error
	if checkpoint {
		err = s.rollAndCheckpoint()
	} else {
		err = s.jour.Sync()
	}
	s.dropJournalSegments()
	if e := s.jour.Close(); e != nil && err == nil {
		err = e
	}
	return err
}
