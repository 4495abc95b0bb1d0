// Package apps is the registry of packaged RCA applications. The paper's
// point is that an application is configuration on top of the platform
// (§III): each one here is a rule-specification file under
// examples/specs, embedded, and the service, the CLI and the chaos harness
// all read this one table. Adding an application is a .grca file and a
// line in the table below.
package apps

import (
	"fmt"

	"grca/examples/specs"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/netstate"
	"grca/internal/rulespec"
	"grca/internal/store"
)

// App is one packaged application: its registry name, its ground-truth
// key in simnet.Truth, and its parsed specification.
type App struct {
	Name  string
	Study string
	Spec  *rulespec.Spec
}

// all is in canonical order: the order streaming diagnoses of one event
// are reported in.
var all = func() []App {
	var out []App
	for _, a := range []struct{ name, study string }{
		{"bgpflap", "bgp"}, {"cdn", "cdn"}, {"pim", "pim"}, {"backbone", "backbone"},
	} {
		app, err := Load(a.name, a.study)
		if err != nil {
			panic(err) // the files are compiled in and vetted by CI
		}
		out = append(out, app)
	}
	return out
}()

// Load parses the embedded examples/specs/<name>.grca.
func Load(name, study string) (App, error) {
	src, err := specs.FS.ReadFile(name + ".grca")
	if err != nil {
		return App{}, fmt.Errorf("apps: %v", err)
	}
	spec, err := rulespec.Parse(string(src))
	if err != nil {
		return App{}, fmt.Errorf("apps: %s: %v", name, err)
	}
	return App{Name: name, Study: study, Spec: spec}, nil
}

// All lists the packaged applications in canonical order. The slice is
// shared; callers must not modify it.
func All() []App { return all }

// Get returns the named application.
func Get(name string) (App, bool) {
	for _, a := range all {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// MustGet returns the named application and panics if there is none.
func MustGet(name string) App {
	a, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("apps: no application %q", name))
	}
	return a
}

// Build materializes the application's event library and diagnosis graph
// over the Knowledge Library.
func (a App) Build() (*event.Library, *dgraph.Graph, error) {
	return a.Spec.Build(event.Knowledge(), dgraph.Knowledge())
}

// NewEngine builds the application's RCA engine over collected data.
func (a App) NewEngine(st store.Store, view *netstate.View) (*engine.Engine, error) {
	_, g, err := a.Build()
	if err != nil {
		return nil, err
	}
	return engine.New(st, view, g), nil
}

// Title heads the application's root-cause breakdown table.
func (a App) Title() string { return a.Spec.Title }

// DisplayLabel maps a raw diagnosis label to its breakdown row name — the
// Result Browser's vocabulary, the paper tables' row names. A label the
// spec does not rename passes through.
func (a App) DisplayLabel(raw string) string {
	for _, l := range a.Spec.Labels {
		if l.Raw == raw {
			return l.Shown
		}
	}
	return raw
}
