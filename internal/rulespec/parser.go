package rulespec

import (
	"fmt"
	"strconv"
	"time"

	"grca/internal/dgraph"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/temporal"
)

// Use is a reference pulling a rule from the diagnosis-rule catalogue with
// an application-specific priority.
type Use struct {
	Symptom    string
	Diagnostic string
	Priority   int
	Line       int
}

// Event is one event (or redefine) statement: the definition plus the
// source line of its keyword, so downstream diagnostics (grca vet) can
// point back into the spec text.
type Event struct {
	event.Definition
	Line int
}

// Rule is one rule statement: the diagnosis rule plus its source line.
type Rule struct {
	dgraph.Rule
	Line int
}

// Label renames a diagnosis label (an event name, or Unknown) for the
// application's root-cause breakdown.
type Label struct {
	Raw, Shown string
	Line       int
}

// Spec is a parsed application specification. Every statement carries the
// source line it started on.
type Spec struct {
	// Name labels the application; Root names its symptom event.
	Name string
	Root string
	// Line is the source line of the "app" header.
	Line int
	// Title heads the application's root-cause breakdown; Labels rename
	// its rows. Neither changes a diagnosis.
	Title  string
	Labels []Label
	// Events are application-specific event definitions; Redefines shadow
	// Knowledge Library entries.
	Events    []Event
	Redefines []Event
	// Rules are application-specific diagnosis rules.
	Rules []Rule
	// Uses pull catalogue rules into the graph.
	Uses []Use
}

type parser struct {
	lex *lexer
	tok token
}

// Parse parses a specification source text.
func Parse(src string) (*Spec, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseSpec()
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, fmt.Errorf("line %d: expected %v, found %v %q",
			p.tok.line, kind, p.tok.kind, p.tok.text)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) keyword(word string) error {
	if p.tok.kind != tokIdent || p.tok.text != word {
		return fmt.Errorf("line %d: expected %q, found %q", p.tok.line, word, p.tok.text)
	}
	return p.advance()
}

func (p *parser) parseSpec() (*Spec, error) {
	s := &Spec{Line: p.tok.line}
	if err := p.keyword("app"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokString)
	if err != nil {
		return nil, err
	}
	s.Name = name.text
	if err := p.keyword("root"); err != nil {
		return nil, err
	}
	root, err := p.expect(tokString)
	if err != nil {
		return nil, err
	}
	s.Root = root.text

	titleLine := 0
	for p.tok.kind != tokEOF {
		if p.tok.kind != tokIdent {
			return nil, fmt.Errorf("line %d: expected a statement, found %q", p.tok.line, p.tok.text)
		}
		switch p.tok.text {
		case "event":
			d, err := p.parseEvent()
			if err != nil {
				return nil, err
			}
			s.Events = append(s.Events, d)
		case "redefine":
			line := p.tok.line
			if err := p.advance(); err != nil {
				return nil, err
			}
			d, err := p.parseEvent()
			if err != nil {
				return nil, err
			}
			d.Line = line
			s.Redefines = append(s.Redefines, d)
		case "rule":
			r, err := p.parseRule()
			if err != nil {
				return nil, err
			}
			s.Rules = append(s.Rules, r)
		case "use":
			u, err := p.parseUse()
			if err != nil {
				return nil, err
			}
			s.Uses = append(s.Uses, u)
		case "title":
			line := p.tok.line
			if titleLine > 0 {
				return nil, fmt.Errorf("line %d: second title (the first is on line %d)", line, titleLine)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			t, err := p.expect(tokString)
			if err != nil {
				return nil, err
			}
			s.Title, titleLine = t.text, line
		case "label":
			l, err := p.parseLabel()
			if err != nil {
				return nil, err
			}
			for _, prev := range s.Labels {
				if prev.Raw == l.Raw {
					return nil, fmt.Errorf("line %d: label %q already given on line %d", l.Line, l.Raw, prev.Line)
				}
			}
			s.Labels = append(s.Labels, l)
		default:
			return nil, fmt.Errorf("line %d: unknown statement %q", p.tok.line, p.tok.text)
		}
	}
	return s, nil
}

func (p *parser) parseEvent() (Event, error) {
	var d Event
	d.Line = p.tok.line
	if err := p.keyword("event"); err != nil {
		return d, err
	}
	name, err := p.expect(tokString)
	if err != nil {
		return d, err
	}
	d.Name = name.text
	if _, err := p.expect(tokLBrace); err != nil {
		return d, err
	}
	for p.tok.kind != tokRBrace {
		prop, err := p.expect(tokIdent)
		if err != nil {
			return d, err
		}
		switch prop.text {
		case "loctype":
			t, err := p.expect(tokIdent)
			if err != nil {
				return d, err
			}
			lt, err := locus.ParseType(t.text)
			if err != nil {
				return d, fmt.Errorf("line %d: %v", t.line, err)
			}
			d.LocType = lt
		case "source":
			if p.tok.kind != tokIdent && p.tok.kind != tokString {
				return d, fmt.Errorf("line %d: source needs a value", p.tok.line)
			}
			d.Source = p.tok.text
			if err := p.advance(); err != nil {
				return d, err
			}
		case "desc":
			t, err := p.expect(tokString)
			if err != nil {
				return d, err
			}
			d.Description = t.text
		default:
			return d, fmt.Errorf("line %d: unknown event property %q", prop.line, prop.text)
		}
	}
	if err := p.advance(); err != nil { // consume '}'
		return d, err
	}
	if err := d.Validate(); err != nil {
		return d, fmt.Errorf("line %d: %v", d.Line, err)
	}
	return d, nil
}

func (p *parser) parseRule() (Rule, error) {
	var r Rule
	r.Line = p.tok.line
	if err := p.keyword("rule"); err != nil {
		return r, err
	}
	sym, err := p.expect(tokString)
	if err != nil {
		return r, err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return r, err
	}
	diag, err := p.expect(tokString)
	if err != nil {
		return r, err
	}
	r.Symptom, r.Diagnostic = sym.text, diag.text
	if _, err := p.expect(tokLBrace); err != nil {
		return r, err
	}
	// Defaults: syslog fuzz on both sides, join at interface level.
	r.Temporal = temporal.Rule{Symptom: dgraph.Syslog5, Diagnostic: dgraph.Syslog5}
	r.JoinLevel = locus.Interface
	for p.tok.kind != tokRBrace {
		prop, err := p.expect(tokIdent)
		if err != nil {
			return r, err
		}
		switch prop.text {
		case "priority":
			n, err := p.expect(tokNumber)
			if err != nil {
				return r, err
			}
			v, err := strconv.Atoi(n.text)
			if err != nil {
				return r, fmt.Errorf("line %d: bad priority %q", n.line, n.text)
			}
			r.Priority = v
		case "join":
			t, err := p.expect(tokIdent)
			if err != nil {
				return r, err
			}
			lt, err := locus.ParseType(t.text)
			if err != nil {
				return r, fmt.Errorf("line %d: %v", t.line, err)
			}
			r.JoinLevel = lt
		case "symptom":
			e, err := p.parseExpansion()
			if err != nil {
				return r, err
			}
			r.Temporal.Symptom = e
		case "diag":
			e, err := p.parseExpansion()
			if err != nil {
				return r, err
			}
			r.Temporal.Diagnostic = e
		case "note":
			t, err := p.expect(tokString)
			if err != nil {
				return r, err
			}
			r.Note = t.text
		default:
			return r, fmt.Errorf("line %d: unknown rule property %q", prop.line, prop.text)
		}
	}
	if err := p.advance(); err != nil {
		return r, err
	}
	if err := r.Validate(nil); err != nil {
		return r, fmt.Errorf("line %d: %v", r.Line, err)
	}
	return r, nil
}

func (p *parser) parseExpansion() (temporal.Expansion, error) {
	var e temporal.Expansion
	opt, err := p.expect(tokIdent)
	if err != nil {
		return e, err
	}
	o, err := temporal.ParseOption(opt.text)
	if err != nil {
		return e, fmt.Errorf("line %d: %v", opt.line, err)
	}
	e.Option = o
	if err := p.keyword("expand"); err != nil {
		return e, err
	}
	for i, dst := range []*time.Duration{&e.Left, &e.Right} {
		t := p.tok
		if t.kind != tokIdent && t.kind != tokNumber {
			return e, fmt.Errorf("line %d: expected duration, found %q", t.line, t.text)
		}
		d, err := time.ParseDuration(t.text)
		if err != nil {
			return e, fmt.Errorf("line %d: margin %d: %v", t.line, i+1, err)
		}
		*dst = d
		if err := p.advance(); err != nil {
			return e, err
		}
	}
	return e, nil
}

func (p *parser) parseLabel() (Label, error) {
	l := Label{Line: p.tok.line}
	if err := p.keyword("label"); err != nil {
		return l, err
	}
	raw, err := p.expect(tokString)
	if err != nil {
		return l, err
	}
	shown, err := p.expect(tokString)
	if err != nil {
		return l, err
	}
	l.Raw, l.Shown = raw.text, shown.text
	return l, nil
}

func (p *parser) parseUse() (Use, error) {
	var u Use
	u.Line = p.tok.line
	if err := p.keyword("use"); err != nil {
		return u, err
	}
	sym, err := p.expect(tokString)
	if err != nil {
		return u, err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return u, err
	}
	diag, err := p.expect(tokString)
	if err != nil {
		return u, err
	}
	u.Symptom, u.Diagnostic = sym.text, diag.text
	if err := p.keyword("priority"); err != nil {
		return u, err
	}
	n, err := p.expect(tokNumber)
	if err != nil {
		return u, err
	}
	v, err := strconv.Atoi(n.text)
	if err != nil {
		return u, fmt.Errorf("line %d: bad priority %q", n.line, n.text)
	}
	u.Priority = v
	return u, nil
}

// Build materializes the specification into an application event library
// and diagnosis graph, resolving catalogue references against cat and
// layering event definitions over base. The returned library and graph are
// fully validated.
func (s *Spec) Build(base *event.Library, cat *dgraph.Catalogue) (*event.Library, *dgraph.Graph, error) {
	lib := base.Clone()
	for _, d := range s.Events {
		if err := lib.Define(d.Definition); err != nil {
			return nil, nil, fmt.Errorf("rulespec %q line %d: %v", s.Name, d.Line, err)
		}
	}
	for _, d := range s.Redefines {
		if _, ok := lib.Get(d.Name); !ok {
			return nil, nil, fmt.Errorf("rulespec %q line %d: redefine of unknown event %q", s.Name, d.Line, d.Name)
		}
		if err := lib.Redefine(d.Definition); err != nil {
			return nil, nil, fmt.Errorf("rulespec %q line %d: %v", s.Name, d.Line, err)
		}
	}
	g := dgraph.New(s.Root)
	for _, u := range s.Uses {
		r, ok := cat.Find(u.Symptom, u.Diagnostic)
		if !ok {
			return nil, nil, fmt.Errorf("rulespec %q line %d: catalogue has no rule %q <- %q",
				s.Name, u.Line, u.Symptom, u.Diagnostic)
		}
		r.Priority = u.Priority
		if err := g.Add(r); err != nil {
			return nil, nil, fmt.Errorf("rulespec %q: %v", s.Name, err)
		}
	}
	for _, r := range s.Rules {
		if err := g.Replace(r.Rule); err != nil { // app rules override catalogue pulls
			return nil, nil, fmt.Errorf("rulespec %q line %d: %v", s.Name, r.Line, err)
		}
	}
	if err := g.Validate(lib); err != nil {
		return nil, nil, fmt.Errorf("rulespec %q: %v", s.Name, err)
	}
	return lib, g, nil
}
