package rulespec

import (
	"strings"
	"testing"
	"time"

	"grca/internal/dgraph"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/temporal"
)

const bgpSpec = `
# BGP flap RCA application (paper Fig. 4 excerpt).
app "bgp-flap" root "eBGP flap"

event "eBGP flap" {
    loctype  router:neighbor
    source   syslog
    desc     "eBGP session goes down and comes up, BGP-5-ADJCHANGE msg."
}

event "Customer reset session" {
    loctype  router:neighbor
    source   syslog
    desc     "eBGP session is reset by the customer, BGP-5-NOTIFICATION msg."
}

redefine event "Link congestion alarm" {
    loctype  interface
    source   SNMP
    desc     ">= 90% link utilization in the SNMP traffic counter"
}

rule "eBGP flap" <- "Interface flap" {
    priority 180
    join     interface
    symptom  start/start expand 180s 5s
    diag     start/end   expand 5s 5s
    note     "BGP fast external fallover"
}

rule "eBGP flap" <- "Customer reset session" {
    priority 200
    join     router:neighbor
}

use "Interface flap" <- "SONET restoration" priority 190
`

func TestParseFullSpec(t *testing.T) {
	s, err := Parse(bgpSpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "bgp-flap" || s.Root != "eBGP flap" {
		t.Errorf("header = %q root %q", s.Name, s.Root)
	}
	if len(s.Events) != 2 || len(s.Redefines) != 1 || len(s.Rules) != 2 || len(s.Uses) != 1 {
		t.Fatalf("counts: events=%d redefines=%d rules=%d uses=%d",
			len(s.Events), len(s.Redefines), len(s.Rules), len(s.Uses))
	}
	ev := s.Events[0]
	if ev.Name != "eBGP flap" || ev.LocType != locus.RouterNeighbor || ev.Source != "syslog" {
		t.Errorf("event = %+v", ev)
	}
	r := s.Rules[0]
	if r.Priority != 180 || r.JoinLevel != locus.Interface {
		t.Errorf("rule = %+v", r)
	}
	if r.Temporal.Symptom.Option != temporal.StartStart ||
		r.Temporal.Symptom.Left != 180*time.Second ||
		r.Temporal.Symptom.Right != 5*time.Second {
		t.Errorf("symptom expansion = %+v", r.Temporal.Symptom)
	}
	if r.Note != "BGP fast external fallover" {
		t.Errorf("note = %q", r.Note)
	}
	// Rule with defaulted temporal parameters.
	r2 := s.Rules[1]
	if r2.JoinLevel != locus.RouterNeighbor {
		t.Errorf("join level = %v", r2.JoinLevel)
	}
	if r2.Temporal.Symptom != dgraph.Syslog5 || r2.Temporal.Diagnostic != dgraph.Syslog5 {
		t.Errorf("default temporal = %+v", r2.Temporal)
	}
	u := s.Uses[0]
	if u.Symptom != "Interface flap" || u.Diagnostic != "SONET restoration" || u.Priority != 190 {
		t.Errorf("use = %+v", u)
	}
}

func TestBuild(t *testing.T) {
	s, err := Parse(bgpSpec)
	if err != nil {
		t.Fatal(err)
	}
	lib, g, err := s.Build(event.Knowledge(), dgraph.Knowledge())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lib.Get("eBGP flap"); !ok {
		t.Error("app event not defined")
	}
	d, _ := lib.Get(event.LinkCongestion)
	if !strings.Contains(d.Description, "90%") {
		t.Error("redefinition not applied")
	}
	if g.Root != "eBGP flap" || g.Len() != 3 {
		t.Errorf("graph root %q len %d", g.Root, g.Len())
	}
	rules := g.RulesFor("Interface flap")
	if len(rules) != 1 || rules[0].Priority != 190 {
		t.Errorf("catalogue pull = %+v", rules)
	}
	// The pulled rule keeps the catalogue's join level.
	if rules[0].JoinLevel != locus.Layer1Device {
		t.Errorf("pulled rule join level = %v", rules[0].JoinLevel)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown catalogue rule",
			`app "x" root "eBGP flap"
			 event "eBGP flap" { loctype router:neighbor }
			 use "eBGP flap" <- "no such event" priority 1`,
			"catalogue has no rule"},
		{"redefine unknown",
			`app "x" root "Interface flap"
			 redefine event "ghost" { loctype router }`,
			"redefine of unknown event"},
		{"duplicate event",
			`app "x" root "Interface flap"
			 event "Interface flap" { loctype interface }`,
			"already defined"},
		{"undefined rule event",
			`app "x" root "Interface flap"
			 rule "Interface flap" <- "ghost" { priority 1 join router }`,
			"undefined diagnostic"},
	}
	for _, c := range cases {
		s, err := Parse(c.src)
		if err != nil {
			t.Errorf("%s: parse failed: %v", c.name, err)
			continue
		}
		_, _, err = s.Build(event.Knowledge(), dgraph.Knowledge())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing app", `event "x" { loctype router }`},
		{"missing root", `app "x"`},
		{"unterminated string", `app "x`},
		{"newline in string", "app \"x\ny\" root \"r\""},
		{"bad escape", `app "x\q" root "r"`},
		{"unknown statement", `app "x" root "r" frobnicate`},
		{"unknown loctype", `app "x" root "r" event "e" { loctype quux }`},
		{"unknown event prop", `app "x" root "r" event "e" { color red }`},
		{"event missing loctype", `app "x" root "r" event "e" { source syslog }`},
		{"unknown rule prop", `app "x" root "r" rule "a" <- "b" { frob 1 }`},
		{"bad duration", `app "x" root "r" rule "a" <- "b" { symptom start/end expand zz 5s }`},
		{"numeric duration", `app "x" root "r" rule "a" <- "b" { symptom start/end expand 180 5s }`},
		{"bad option", `app "x" root "r" rule "a" <- "b" { symptom middle/middle expand 5s 5s }`},
		{"self-loop", `app "x" root "r" rule "a" <- "a" { priority 1 }`},
		{"missing arrow", `app "x" root "r" rule "a" "b" { priority 1 }`},
		{"stray char", `app "x" root "r" @`},
		{"lone <", `app "x" root "r" <`},
		{"use missing priority", `app "x" root "r" use "a" <- "b"`},
		{"title missing string", `app "x" root "r" title`},
		{"label missing shown name", `app "x" root "r" label "a"`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: parse succeeded, want error", c.name)
		}
	}
}

func TestCommentsAndEscapes(t *testing.T) {
	src := `
# leading comment
app "x" root "r"   # trailing comment
event "r" {
    loctype router
    desc "tab\there \"quoted\" and backslash \\"
}
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if want := "tab\there \"quoted\" and backslash \\"; s.Events[0].Description != want {
		t.Errorf("desc = %q, want %q", s.Events[0].Description, want)
	}
}

func TestAppRuleOverridesCataloguePull(t *testing.T) {
	src := `
app "x" root "Line protocol flap"
use  "Line protocol flap" <- "Interface flap" priority 10
rule "Line protocol flap" <- "Interface flap" {
    priority 99
    join interface
}
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := s.Build(event.Knowledge(), dgraph.Knowledge())
	if err != nil {
		t.Fatal(err)
	}
	rules := g.RulesFor("Line protocol flap")
	if len(rules) != 1 || rules[0].Priority != 99 {
		t.Errorf("override failed: %+v", rules)
	}
}

// TestStatementLines pins the line provenance threaded through the parsed
// Spec: every statement must carry the 1-based source line its keyword
// appears on, with comments and blank lines accounted for exactly.
func TestStatementLines(t *testing.T) {
	src := `app "lines" root "eBGP flap"

# a comment that must advance the line counter
event "eBGP flap" {
    loctype router:neighbor
    source  syslog
}
redefine event "Interface flap" {
    loctype interface
    source  syslog
}

rule "eBGP flap" <- "Interface flap" {
    priority 10
    join     interface
}
use "Interface flap" <- "SONET restoration" priority 190
title "Flaps"
label "Interface flap" "Layer-1 or layer-2 flap"
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Line != 1 {
		t.Errorf("app header line = %d, want 1", s.Line)
	}
	if got := s.Events[0].Line; got != 4 {
		t.Errorf("event line = %d, want 4", got)
	}
	if got := s.Redefines[0].Line; got != 8 {
		t.Errorf("redefine line = %d, want 8", got)
	}
	if got := s.Rules[0].Line; got != 13 {
		t.Errorf("rule line = %d, want 13", got)
	}
	if got := s.Uses[0].Line; got != 17 {
		t.Errorf("use line = %d, want 17", got)
	}
	if s.Title != "Flaps" {
		t.Errorf("title = %q", s.Title)
	}
	if want := (Label{Raw: "Interface flap", Shown: "Layer-1 or layer-2 flap", Line: 19}); len(s.Labels) != 1 || s.Labels[0] != want {
		t.Errorf("labels = %+v, want [%+v]", s.Labels, want)
	}
}

// TestErrorsCarryLines asserts that every Parse failure names a source
// line, including semantic (Validate) failures that used to surface bare.
func TestErrorsCarryLines(t *testing.T) {
	cases := []struct {
		src  string
		want string // required substring
	}{
		{"app \"x\" root \"r\"\nevent \"e\" {\n}", "line 2"},                               // missing loctype: Validate error
		{"app \"x\" root \"r\"\n\nrule \"a\" <- \"a\" { priority 1 }", "line 3"},           // self-loop: Validate error
		{"app \"x\" root \"r\"\nrule \"a\" <- \"b\" { priority x }", "line 2"},             // bad number token
		{"app \"x\" root \"r\"\n\n\nbogus \"s\"", "line 4"},                                // unknown statement
		{"app \"x\" root \"r\"\nevent \"e\" { loctype nowhere }", "line 2"},                // unknown location type
		{"app \"x\" root \"r\"\nrule \"a\" <- \"b\" { symptom start expand 1 }", "line 2"}, // bad expansion option
		{"app \"x\" root \"r\"\n\"unterminated", "line 2"},                                 // lexer error
		{"app \"x\" root \"r\"\ntitle \"a\"\n\ntitle \"b\"", "line 4: second title (the first is on line 2)"},
		{"app \"x\" root \"r\"\nlabel \"a\" \"b\"\nlabel \"a\" \"c\"", `line 3: label "a" already given on line 2`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q does not name %q", c.src, err, c.want)
		}
	}
}
