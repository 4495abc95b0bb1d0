package server

import (
	"fmt"
	"strings"
	"time"

	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/locus"
)

// The wire types of the /v1 API. Every internal type crosses the HTTP
// boundary through one of these — locus types travel as their names, not
// their numeric codes, so clients never depend on enum ordering.

// LocationJSON is a locus.Location on the wire.
type LocationJSON struct {
	Type string `json:"type"`
	A    string `json:"a,omitempty"`
	B    string `json:"b,omitempty"`
}

func locationJSON(l locus.Location) LocationJSON {
	return LocationJSON{Type: l.Type.String(), A: l.A, B: l.B}
}

func (lj LocationJSON) location() (locus.Location, error) {
	t, err := locus.ParseType(lj.Type)
	if err != nil {
		return locus.Location{}, err
	}
	return locus.Location{Type: t, A: lj.A, B: lj.B}, nil
}

// EventJSON is an event instance on the wire.
type EventJSON struct {
	ID    int               `json:"id,omitempty"`
	Name  string            `json:"name"`
	Start time.Time         `json:"start"`
	End   time.Time         `json:"end"`
	Loc   LocationJSON      `json:"loc"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

func eventJSON(in *event.Instance) EventJSON {
	return EventJSON{
		ID: in.ID, Name: in.Name,
		Start: in.Start, End: in.End,
		Loc: locationJSON(in.Loc), Attrs: in.Attrs.Map(),
	}
}

func (e EventJSON) instance() (event.Instance, error) {
	loc, err := e.Loc.location()
	if err != nil {
		return event.Instance{}, fmt.Errorf("event %q: %v", e.Name, err)
	}
	in := event.Instance{
		Name: e.Name, Start: e.Start.UTC(), End: e.End.UTC(),
		Loc: loc, Attrs: event.NewAttrs(e.Attrs),
	}
	if err := in.Check(); err != nil {
		return event.Instance{}, err
	}
	return in, nil
}

// IngestRequest is the body of POST /v1/ingest. Exactly one mode:
// raw feed lines (Source+Lines, the Data Collector path, loading phase)
// or normalized events (Events, any phase; streamed through the
// realtime processor once the system is finalized).
type IngestRequest struct {
	Source string      `json:"source,omitempty"`
	Lines  string      `json:"lines,omitempty"`
	Events []EventJSON `json:"events,omitempty"`
}

// IngestResponse reports what one accepted batch did.
type IngestResponse struct {
	// Stored is how many normalized instances the batch added to the
	// store (for feeds, after parsing/detection; raw lines in ≠ events out).
	Stored int `json:"stored"`
	// Late counts (event, application) pairs whose event arrived behind
	// that application's stream clock by more than its grace period: the
	// event is stored, but symptoms it might explain were already
	// diagnosed without it. Feed-mode parse totals live in /v1/stats.
	Late int `json:"late,omitempty"`
	// Diagnoses carries streaming diagnoses emitted by this batch
	// (normalized-event mode after finalize), written as their stream
	// entries' objects less "seq": the bytes encoding/json would write.
	Diagnoses []DiagnosisJSON `json:"diagnoses,omitempty"`
}

// DiagnoseRequest is the body of POST /v1/diagnose: one symptom by store
// ID, or every symptom of the application (All).
type DiagnoseRequest struct {
	App   string `json:"app"`
	ID    int    `json:"id,omitempty"`
	All   bool   `json:"all,omitempty"`
	Trace bool   `json:"trace,omitempty"`
}

// DiagnoseResponse is the body of a successful diagnosis.
type DiagnoseResponse struct {
	App       string          `json:"app"`
	Diagnoses []DiagnosisJSON `json:"diagnoses"`
}

// CauseJSON is one root cause of a diagnosis.
type CauseJSON struct {
	Event     string      `json:"event"`
	Priority  int         `json:"priority"`
	Chain     []string    `json:"chain,omitempty"`
	Instances []EventJSON `json:"instances,omitempty"`
}

// NodeJSON is one vertex of the evidence tree; Rule is the dgraph rule
// key of the edge from the parent (empty at the root).
type NodeJSON struct {
	Event    string     `json:"event"`
	Instance EventJSON  `json:"instance"`
	Rule     string     `json:"rule,omitempty"`
	Priority int        `json:"priority,omitempty"`
	Children []NodeJSON `json:"children,omitempty"`
}

// DiagnosisJSON is one full diagnosis on the wire. It deliberately omits
// wall-clock latency so that two diagnoses of the same symptom over the
// same data are byte-identical — the parity contract with the batch CLI.
type DiagnosisJSON struct {
	// App is set on streaming diagnoses inside an IngestResponse, where
	// several applications share the stream; /v1/diagnose responses name
	// the app once at the top level instead.
	App      string      `json:"app,omitempty"`
	Symptom  EventJSON   `json:"symptom"`
	Label    string      `json:"label"`
	Primary  string      `json:"primary"`
	Causes   []CauseJSON `json:"causes,omitempty"`
	Warnings []string    `json:"warnings,omitempty"`
	Tree     NodeJSON    `json:"tree"`
	Trace    []string    `json:"trace,omitempty"`
}

func nodeJSON(n *engine.Node) NodeJSON {
	out := NodeJSON{Event: n.Event, Instance: eventJSON(n.Instance)}
	if n.Rule.Symptom != "" {
		out.Rule = n.Rule.Key()
		out.Priority = n.Rule.Priority
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, nodeJSON(c))
	}
	return out
}

// diagnosisJSON renders an engine diagnosis for the wire.
func diagnosisJSON(d engine.Diagnosis) DiagnosisJSON {
	out := DiagnosisJSON{
		Symptom:  eventJSON(d.Symptom),
		Label:    d.Label(),
		Primary:  d.Primary(),
		Warnings: d.Warnings,
		Tree:     nodeJSON(d.Root),
	}
	for _, c := range d.Causes {
		cj := CauseJSON{Event: c.Event, Priority: c.Priority, Chain: c.Chain}
		for _, in := range c.Instances {
			cj.Instances = append(cj.Instances, eventJSON(in))
		}
		out.Causes = append(out.Causes, cj)
	}
	if d.Trace != nil {
		var sb strings.Builder
		if err := d.Trace.Write(&sb); err == nil {
			out.Trace = strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
		}
	}
	return out
}

// ErrorJSON is every non-2xx body.
type ErrorJSON struct {
	Error string `json:"error"`
}

// decodeEvents converts a wire batch to instances, rejecting the whole
// batch on the first invalid event (nothing is journaled for it).
func decodeEvents(evs []EventJSON) ([]event.Instance, error) {
	out := make([]event.Instance, 0, len(evs))
	for _, ej := range evs {
		in, err := ej.instance()
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}
