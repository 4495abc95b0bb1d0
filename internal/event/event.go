// Package event defines the G-RCA event abstraction (paper §II-A): an
// event definition is the signature of a particular type of network
// condition — a tuple (event-name, location type, retrieval process,
// additional descriptive information) — and an event instance is one
// occurrence, (event-name, start-time, end-time, location, additional
// info).
//
// The package also ships the RCA Knowledge Library's common event
// catalogue reproduced from Table I of the paper; applications extend or
// redefine entries as needed (the paper's example: redefining the link
// congestion alarm threshold per application).
package event

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"grca/internal/locus"
)

// Definition is an event signature. Retrieval in the paper points at the
// scripts or database queries producing matching instances; here retrieval
// is performed by the collector's detectors, and Source names the data
// source feeding them.
type Definition struct {
	Name        string
	Description string
	LocType     locus.Type
	Source      string
}

// Validate reports whether the definition is well formed.
func (d Definition) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("event: definition without a name")
	}
	if !d.LocType.Valid() {
		return fmt.Errorf("event: definition %q has invalid location type", d.Name)
	}
	return nil
}

// Instance is one occurrence of an event. Instantaneous conditions (a
// syslog line) have End equal to Start; interval conditions (a 5-minute
// SNMP bin, a flap spanning down and up messages) have End after Start.
type Instance struct {
	// ID is assigned by the store on insertion and is unique within it.
	ID    int
	Name  string
	Start time.Time
	End   time.Time
	Loc   locus.Location
	// Attrs carries the "additional info" of the tuple: raw message text,
	// measured values, ground-truth labels in simulation, etc.
	Attrs Attrs
}

// MinTime and MaxTime are the first and last instants the durable logs can
// hold: they write a time as int64 nanoseconds since the Unix epoch.
var (
	MinTime = time.Unix(0, math.MinInt64).UTC()
	MaxTime = time.Unix(0, math.MaxInt64).UTC()
)

// ErrTimeRange is an instance that starts before MinTime or ends after
// MaxTime. Instance.Check rejects it with this text.
var ErrTimeRange = errors.New("start and end must lie between " +
	MinTime.Format(time.RFC3339Nano) + " and " + MaxTime.Format(time.RFC3339Nano))

// Duration returns End − Start.
func (in Instance) Duration() time.Duration { return in.End.Sub(in.Start) }

// Attr returns the named attribute or "".
func (in Instance) Attr(key string) string { return in.Attrs.Get(key) }

// WithAttr returns a copy of the instance with the attribute set.
func (in Instance) WithAttr(key, value string) Instance {
	in.Attrs = in.Attrs.With(key, value)
	return in
}

// String renders the instance in the paper's tuple notation.
func (in Instance) String() string {
	return fmt.Sprintf("(%s, %s, %s, %s)", in.Name,
		in.Start.Format(time.DateTime), in.End.Format(time.DateTime), in.Loc)
}

// Validate checks the instance against its definition.
func (in Instance) Validate(def Definition) error {
	if in.Name != def.Name {
		return fmt.Errorf("event: instance name %q does not match definition %q", in.Name, def.Name)
	}
	if in.End.Before(in.Start) {
		return fmt.Errorf("event: instance %q ends before it starts", in.Name)
	}
	if in.Loc.Type != def.LocType {
		return fmt.Errorf("event: instance %q has location type %v, definition requires %v",
			in.Name, in.Loc.Type, def.LocType)
	}
	return nil
}

// Check holds an ingested instance to the rules both ingest APIs share,
// and answers in the words both use: a name, a start and an end, an end
// not before the start, instants between MinTime and MaxTime, a valid
// locus type.
func (in Instance) Check() error {
	switch {
	case strings.TrimSpace(in.Name) == "":
		return errors.New("event name is required")
	case in.Start.IsZero() || in.End.IsZero():
		return fmt.Errorf("event %q: start and end are required", in.Name)
	case in.End.Before(in.Start):
		return fmt.Errorf("event %q: end precedes start", in.Name)
	case in.Start.Before(MinTime) || in.End.After(MaxTime):
		return fmt.Errorf("event %q: %v", in.Name, ErrTimeRange)
	case !in.Loc.Type.Valid():
		return fmt.Errorf("event %q: locus: unknown location type %q", in.Name, in.Loc.Type)
	}
	return nil
}

// Library is a set of event definitions, keyed by name. Applications layer
// their own definitions on top of the shared Knowledge Library; a
// redefinition shadows the library entry (paper §II-A).
type Library struct {
	defs map[string]Definition
}

// NewLibrary returns an empty library.
func NewLibrary() *Library { return &Library{defs: map[string]Definition{}} }

// Define adds a new definition; it is an error if the name exists.
func (l *Library) Define(d Definition) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if _, dup := l.defs[d.Name]; dup {
		return fmt.Errorf("event: %q already defined (use Redefine to override)", d.Name)
	}
	l.defs[d.Name] = d
	return nil
}

// Redefine adds or replaces a definition, the application-override path.
func (l *Library) Redefine(d Definition) error {
	if err := d.Validate(); err != nil {
		return err
	}
	l.defs[d.Name] = d
	return nil
}

// Get returns the definition for name.
func (l *Library) Get(name string) (Definition, bool) {
	d, ok := l.defs[name]
	return d, ok
}

// Names returns all defined event names, sorted.
func (l *Library) Names() []string {
	out := make([]string, 0, len(l.defs))
	for n := range l.defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of definitions.
func (l *Library) Len() int { return len(l.defs) }

// Clone returns a copy of the library that can be extended independently;
// this is how each RCA application gets its private view of the Knowledge
// Library.
func (l *Library) Clone() *Library {
	c := NewLibrary()
	for n, d := range l.defs {
		c.defs[n] = d
	}
	return c
}
