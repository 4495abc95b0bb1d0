package event

import (
	"strings"
	"testing"
	"time"

	"grca/internal/locus"
)

var t0 = time.Date(2010, 1, 1, 12, 30, 0, 0, time.UTC)

func TestKnowledgeLibraryEvents(t *testing.T) {
	l := Knowledge()
	// Table I has 24 rows.
	if got := l.Len(); got != 24 {
		t.Errorf("knowledge library size = %d, want 24 (Table I)", got)
	}
	cases := []struct {
		name string
		lt   locus.Type
		src  string
	}{
		{RouterReboot, locus.Router, SourceSyslog},
		{CPUHighAverage, locus.Router, SourceSNMP},
		{CPUHighSpike, locus.Router, SourceSyslog},
		{InterfaceFlap, locus.Interface, SourceSyslog},
		{SONETRestoration, locus.Layer1Device, SourceLayer1Log},
		{LinkCongestion, locus.Interface, SourceSNMP},
		{OSPFReconvergence, locus.Interface, SourceOSPFMonitor},
		{RouterCostInOut, locus.Router, SourceOSPFMonitor},
		{CommandCostOut, locus.Interface, SourceTACACS},
		{BGPEgressChange, locus.IngressDestination, SourceBGPMonitor},
		{ThroughputDrop, locus.IngressEgress, SourcePerfMonitor},
	}
	for _, c := range cases {
		d, ok := l.Get(c.name)
		if !ok {
			t.Errorf("missing event %q", c.name)
			continue
		}
		if d.LocType != c.lt {
			t.Errorf("%q location type = %v, want %v", c.name, d.LocType, c.lt)
		}
		if d.Source != c.src {
			t.Errorf("%q source = %q, want %q", c.name, d.Source, c.src)
		}
	}
}

func TestDefineAndRedefine(t *testing.T) {
	l := Knowledge()
	if err := l.Define(Definition{Name: LinkCongestion, LocType: locus.Interface}); err == nil {
		t.Error("Define allowed duplicate")
	}
	// The paper's example: the web-hosting analysis redefines the
	// congestion alarm threshold to 90%.
	if err := l.Redefine(Definition{
		Name: LinkCongestion, Description: ">= 90% link utilization in the SNMP traffic counter",
		LocType: locus.Interface, Source: SourceSNMP,
	}); err != nil {
		t.Fatal(err)
	}
	d, _ := l.Get(LinkCongestion)
	if !strings.Contains(d.Description, "90%") {
		t.Errorf("redefinition not applied: %q", d.Description)
	}
	// Redefinition must not leak into a fresh library.
	d2, _ := Knowledge().Get(LinkCongestion)
	if strings.Contains(d2.Description, "90%") {
		t.Error("Knowledge() shares state across calls")
	}
}

func TestDefinitionValidate(t *testing.T) {
	if err := (Definition{LocType: locus.Router}).Validate(); err == nil {
		t.Error("nameless definition validated")
	}
	if err := (Definition{Name: "x"}).Validate(); err == nil {
		t.Error("typeless definition validated")
	}
	if err := (Definition{Name: "x", LocType: locus.Router}).Validate(); err != nil {
		t.Errorf("valid definition rejected: %v", err)
	}
	l := NewLibrary()
	if err := l.Define(Definition{}); err == nil {
		t.Error("library accepted invalid definition")
	}
	if err := l.Redefine(Definition{}); err == nil {
		t.Error("library accepted invalid redefinition")
	}
}

func TestInstanceValidate(t *testing.T) {
	def := Definition{Name: LinkCongestion, LocType: locus.Interface, Source: SourceSNMP}
	ok := Instance{
		Name:  LinkCongestion,
		Start: t0, End: t0.Add(5 * time.Minute),
		Loc: locus.Between(locus.Interface, "newyork-router1", "serial-interface0"),
	}
	if err := ok.Validate(def); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := ok
	bad.End = t0.Add(-time.Second)
	if err := bad.Validate(def); err == nil {
		t.Error("backwards interval validated")
	}
	bad = ok
	bad.Loc = locus.At(locus.Router, "r1")
	if err := bad.Validate(def); err == nil {
		t.Error("wrong location type validated")
	}
	bad = ok
	bad.Name = "other"
	if err := bad.Validate(def); err == nil {
		t.Error("mismatched name validated")
	}
}

func TestInstanceHelpers(t *testing.T) {
	in := Instance{Name: "e", Start: t0, End: t0.Add(time.Minute)}
	if in.Duration() != time.Minute {
		t.Error("Duration wrong")
	}
	if in.Attr("missing") != "" {
		t.Error("Attr on the empty set should be empty")
	}
	in2 := in.WithAttr("rootcause", "fiber cut")
	if in2.Attr("rootcause") != "fiber cut" {
		t.Error("WithAttr did not set")
	}
	if in.Attrs != (Attrs{}) {
		t.Error("WithAttr mutated the receiver")
	}
	in3 := in2.WithAttr("k2", "v2")
	if in3.Attr("rootcause") != "fiber cut" || in2.Attr("k2") != "" {
		t.Error("WithAttr copy semantics broken")
	}
	s := in.String()
	if !strings.Contains(s, "e") || !strings.Contains(s, "2010-01-01") {
		t.Errorf("String = %q", s)
	}
}

func TestLibraryCloneIsolation(t *testing.T) {
	base := Knowledge()
	app := base.Clone()
	if err := app.Define(Definition{Name: EBGPFlap, LocType: locus.RouterNeighbor, Source: SourceSyslog}); err != nil {
		t.Fatal(err)
	}
	if _, leaked := base.Get(EBGPFlap); leaked {
		t.Error("Clone shares the definition map")
	}
	if app.Len() != base.Len()+1 {
		t.Errorf("clone size = %d, want %d", app.Len(), base.Len()+1)
	}
	names := app.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatal("Names not sorted")
		}
	}
}

// TestPaperExampleInstance reproduces the paper's worked example instance:
// (link-congestion, 2010-01-01 12:30:00, 2010-01-01 12:35:00,
// newyork-router1:serial-interface0).
func TestPaperExampleInstance(t *testing.T) {
	def, ok := Knowledge().Get(LinkCongestion)
	if !ok {
		t.Fatal("link congestion missing from knowledge library")
	}
	in := Instance{
		Name:  LinkCongestion,
		Start: time.Date(2010, 1, 1, 12, 30, 0, 0, time.UTC),
		End:   time.Date(2010, 1, 1, 12, 35, 0, 0, time.UTC),
		Loc:   locus.Between(locus.Interface, "newyork-router1", "serial-interface0"),
	}
	if err := in.Validate(def); err != nil {
		t.Fatal(err)
	}
	if got := in.Loc.String(); got != "newyork-router1:serial-interface0" {
		t.Errorf("location rendering = %q", got)
	}
}
