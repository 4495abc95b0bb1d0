package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"grca/internal/browser"
	"grca/internal/engine"
	"grca/internal/locus"
	"grca/internal/obs"
)

// The live Result Browser (paper §II-F): breakdown tables, trending,
// cause filtering, drill-down, and the SSE diagnosis stream. Breakdown
// and cause trends answer from the incremental rollups maintained on the
// diagnose path (internal/rollup), event trends from the store's own
// start column; the only per-request diagnosis work is the handful of
// symptoms still inside their grace window.

var mBrowserSecs = obs.GetHistogram("server.http.browser.seconds", obs.LatencyBuckets)

// StreamDiagnosisJSON is one diagnosis on the Result Browser stream: a
// DiagnosisJSON plus its stream sequence number (the SSE event id).
type StreamDiagnosisJSON struct {
	Seq int64 `json:"seq"`
	DiagnosisJSON
}

// browserApp resolves the app query parameter to the served application,
// writing the error response itself (and returning nil) on failure.
func (s *Server) browserApp(w http.ResponseWriter, r *http.Request) (*serving, *servedApp) {
	sv := s.serving.Load()
	if sv == nil {
		writeErr(w, http.StatusConflict, "not finalized: POST /v1/finalize first")
		return nil, nil
	}
	app := r.URL.Query().Get("app")
	a := sv.app(app)
	switch {
	case a != nil:
	case app == "":
		writeErr(w, http.StatusBadRequest, "app parameter required")
	default:
		writeErr(w, http.StatusBadRequest, "unknown application %q", app)
	}
	return sv, a
}

// pendingDiagnoses diagnoses, on demand, the application's symptoms still
// pending in the streaming processor — the delta between the rollup
// counters and the full store that BreakdownCounts/CauseTrend merge back
// in. a is one of sv's applications: symptoms and engine share one state.
// First, when an event has arrived behind the stream clock since the last
// read, it counts every stored root symptom of a again: a symptom
// diagnosed before that event may have lacked it as evidence.
func (s *Server) pendingDiagnoses(sv *serving, a *servedApp) []engine.Diagnosis {
	if a.stale.Swap(false) {
		s.countAll(a)
	}
	syms := sv.proc.PendingSymptoms(a.Name)
	ds := make([]engine.Diagnosis, 0, len(syms))
	for _, sym := range syms {
		ds = append(ds, a.eng.Diagnose(sym))
	}
	return ds
}

// handleBreakdown serves GET /v1/breakdown?app=&window=: the root-cause
// breakdown table (display labels), equal to the batch browser.Breakdown
// over one full-evidence diagnosis of every live root symptom.
func (s *Server) handleBreakdown(w http.ResponseWriter, r *http.Request) {
	sv, a := s.browserApp(w, r)
	if a == nil {
		return
	}
	var from time.Time
	window := r.URL.Query().Get("window")
	if window != "" {
		d, err := time.ParseDuration(window)
		if err != nil || d <= 0 {
			writeErr(w, http.StatusBadRequest, "bad window %q (want a positive duration)", window)
			return
		}
		if _, last, ok := s.st.Span(); ok {
			from = last.Add(-d)
		}
	}
	counts, total := s.roll.BreakdownCounts(a.Name, from, s.pendingDiagnoses(sv, a))
	mapped := make(map[string]int, len(counts))
	for label, n := range counts {
		mapped[a.DisplayLabel(label)] += n
	}
	rows := browser.Rows(mapped, total)
	if rows == nil {
		rows = []browser.Row{}
	}
	resp := map[string]any{"app": a.Name, "total": total, "rows": rows}
	if window != "" {
		resp["window"] = window
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCauses serves GET /v1/causes?app=: the raw root-cause labels
// (the filter/trend vocabulary) with live counts.
func (s *Server) handleCauses(w http.ResponseWriter, r *http.Request) {
	sv, a := s.browserApp(w, r)
	if a == nil {
		return
	}
	counts, total := s.roll.BreakdownCounts(a.Name, time.Time{}, s.pendingDiagnoses(sv, a))
	rows := browser.Rows(counts, total)
	if rows == nil {
		rows = []browser.Row{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"app": a.Name, "total": total, "causes": rows})
}

// maxTrendPoints caps one /v1/trend series. The series is allocated
// before anything is counted, so an unbounded [from, to] at a fine bin
// would let one request allocate gigabytes; a year of 1-minute bins fits.
const maxTrendPoints = 1 << 20

// handleTrend serves GET /v1/trend: per-bin counts of an event name
// (?name=) or of a diagnosed cause (?app=&cause=, raw label) over
// [from, to]. bin must be a multiple of the rollup base bin; from is
// truncated onto the bin grid; defaults cover the store span, where the
// series equals the batch browser.Trend exactly.
func (s *Server) handleTrend(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bin := s.roll.Bin()
	if v := q.Get("bin"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeErr(w, http.StatusBadRequest, "bad bin %q (want a positive duration)", v)
			return
		}
		if d%s.roll.Bin() != 0 {
			writeErr(w, http.StatusBadRequest, "bin %v must be a multiple of the base bin %v", d, s.roll.Bin())
			return
		}
		bin = d
	}
	first, last, haveSpan := s.st.Span()
	from, to := first, last
	if v := q.Get("from"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad from %q: %v", v, err)
			return
		}
		from = t
	}
	if v := q.Get("to"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad to %q: %v", v, err)
			return
		}
		to = t
	}
	from = from.Truncate(bin)
	if !to.Before(from) && to.Sub(from)/bin >= maxTrendPoints {
		writeErr(w, http.StatusBadRequest, "trend from %s to %s at bin %v exceeds %d points; use a larger bin",
			from.Format(time.RFC3339), to.Format(time.RFC3339), bin, maxTrendPoints)
		return
	}

	name, cause := q.Get("name"), q.Get("cause")
	var points []browser.TrendPoint
	resp := map[string]any{"bin": bin.String(), "from": from, "to": to}
	switch {
	case cause != "":
		sv, a := s.browserApp(w, r)
		if a == nil {
			return
		}
		resp["app"], resp["cause"] = a.Name, cause
		if haveSpan {
			points = s.roll.CauseTrend(a.Name, cause, from, to, bin, s.pendingDiagnoses(sv, a))
		}
	case name != "":
		resp["name"] = name
		if haveSpan {
			points = s.nameTrend(name, from, to, bin)
		}
	default:
		writeErr(w, http.StatusBadRequest, "provide name= (event trend) or app=&cause= (cause trend)")
		return
	}
	if points == nil {
		points = []browser.TrendPoint{}
	}
	resp["points"] = points
	writeJSON(w, http.StatusOK, resp)
}

// nameTrend counts the name's live events per bin over [from, to] from
// the store's start column: an event counts in the bin of its Start's
// minute, for every minute from from's to to's, as a trend over one-minute
// bins summed up would count it.
func (s *Server) nameTrend(name string, from, to time.Time, bin time.Duration) []browser.TrendPoint {
	points := browser.NewSeries(from, to, bin)
	if points == nil {
		return nil
	}
	counts := make([]int, len(points))
	s.st.CountStarts(name, from, to.Truncate(time.Minute).Add(time.Minute), bin, counts)
	for i, n := range counts {
		points[i].Count = n
	}
	return points
}

// drilldown defaults: how far around the symptom to look and at which
// spatial join level.
const (
	defaultDrillWindow = 15 * time.Minute
	defaultDrillLevel  = locus.Router
)

// handleDrilldown serves GET /v1/drilldown/{id}?app=&window=&level=: the
// full investigation view for one stored symptom — a traced diagnosis
// (evidence chain plus staged timings) and every co-located raw event
// within the window, the paper's §IV-B manual exploration.
func (s *Server) handleDrilldown(w http.ResponseWriter, r *http.Request) {
	sv := s.serving.Load()
	if sv == nil {
		writeErr(w, http.StatusConflict, "not finalized: POST /v1/finalize first")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/drilldown/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad event id %q", idStr)
		return
	}
	sym, ok := s.st.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no event with id %d", id)
		return
	}
	q := r.URL.Query()
	app := q.Get("app")
	if app == "" {
		app = sv.rootOf[sym.Name]
	}
	a := sv.app(app)
	if a == nil {
		if app == "" {
			writeErr(w, http.StatusBadRequest,
				"event %d (%q) is no application's root symptom; pass app=", id, sym.Name)
		} else {
			writeErr(w, http.StatusBadRequest, "unknown application %q", app)
		}
		return
	}
	window := defaultDrillWindow
	if v := q.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeErr(w, http.StatusBadRequest, "bad window %q", v)
			return
		}
		window = d
	}
	level := defaultDrillLevel
	if v := q.Get("level"); v != "" {
		t, err := locus.ParseType(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		level = t
	}
	d := a.eng.DiagnoseTraced(sym)
	colocated, err := browser.DrillDown(s.st, sv.view, sym, window, level)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "drill-down: %v", err)
		return
	}
	evs := make([]EventJSON, 0, len(colocated))
	for _, in := range colocated {
		evs = append(evs, eventJSON(in))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "app": app,
		"window": window.String(), "level": level.String(),
		"diagnosis": diagnosisJSON(d),
		"trace":     d.Trace.JSON(),
		"colocated": evs,
	})
}

// handleRecent serves GET /v1/recent?after=&limit=: the ring of recent
// streaming diagnoses, the poll-based sibling of /v1/stream.
func (s *Server) handleRecent(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	after := int64(0)
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad after %q", v)
			return
		}
		after = n
	}
	limit := 50
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	entries, last := s.hub.since(after, limit)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// writeJSON's bytes for {"diagnoses":[…],"last_seq":N}, written around
	// each entry's own (encoding/json would re-compact them). A failed
	// write means the client left, which changes nothing here.
	io.WriteString(w, `{"diagnoses":[`)
	for i, e := range entries {
		if i > 0 {
			io.WriteString(w, ",")
		}
		_, body := e.render()
		w.Write(body)
	}
	io.WriteString(w, `],"last_seq":`+strconv.FormatInt(last, 10)+"}\n")
}

// handleStream serves GET /v1/stream: fresh diagnoses over SSE. A client
// may catch up with ?after=<seq> (every ring entry past seq) or
// ?replay=<n> (the last n ring entries) before going live. Each client
// gets a bounded buffer; one that stops reading is evicted rather than
// backpressuring the ingest path, and reconnects from its last seen id.
// Deliberately not wrapped in the request timeout: the stream lives
// until the client leaves or the server drains.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	q := r.URL.Query()
	after, replay := int64(-1), -1
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad after %q", v)
			return
		}
		after = n
	}
	if v := q.Get("replay"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad replay %q", v)
			return
		}
		replay = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	c, backlog := s.hub.subscribe(after, replay)
	defer s.hub.unsubscribe(c)
	for _, e := range backlog {
		frame, _ := e.render()
		if _, err := w.Write(frame); err != nil {
			return
		}
	}
	flusher.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case e, ok := <-c.ch:
			if !ok {
				return // evicted as a slow consumer
			}
			frame, _ := e.render()
			if _, err := w.Write(frame); err != nil {
				return
			}
			flusher.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		}
	}
}
