package locus

import "testing"

func TestTypeString(t *testing.T) {
	cases := []struct {
		t    Type
		want string
	}{
		{Router, "router"},
		{Interface, "interface"},
		{Layer1Device, "layer1-device"},
		{IngressEgress, "ingress:egress"},
		{ServerClient, "server:client"},
		{None, "none"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.t, got, c.want)
		}
	}
	if got := Type(200).String(); got != "locus.Type(200)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestParseTypeRoundTrip(t *testing.T) {
	for typ := None + 1; typ < numTypes; typ++ {
		got, err := ParseType(typ.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", typ.String(), err)
		}
		if got != typ {
			t.Errorf("ParseType(%q) = %v, want %v", typ.String(), got, typ)
		}
	}
	if _, err := ParseType("no-such-type"); err == nil {
		t.Error("ParseType accepted unknown name")
	}
	if _, err := ParseType(""); err == nil {
		t.Error("ParseType accepted empty name")
	}
}

func TestParseTypeCaseAndSpace(t *testing.T) {
	got, err := ParseType("  Ingress:Egress ")
	if err != nil || got != IngressEgress {
		t.Errorf("ParseType with case/space = %v, %v", got, err)
	}
}

func TestTypePredicates(t *testing.T) {
	if Router.Span() || Interface.Span() {
		t.Error("Router/Interface predicates wrong")
	}
	if !IngressEgress.Span() {
		t.Error("IngressEgress predicates wrong")
	}
	if None.Valid() || !Router.Valid() || Type(99).Valid() {
		t.Error("Valid predicates wrong")
	}
}

func TestLocationString(t *testing.T) {
	if s := At(Router, "nyc-cr1").String(); s != "nyc-cr1" {
		t.Errorf("single String = %q", s)
	}
	if s := Between(Interface, "nyc-cr1", "so-1/0/0").String(); s != "nyc-cr1:so-1/0/0" {
		t.Errorf("pair String = %q", s)
	}
	if s := (Location{}).String(); s != "<nowhere>" {
		t.Errorf("zero String = %q", s)
	}
}

func TestKeyUniqueness(t *testing.T) {
	// Locations differing only in type or element split must have distinct
	// keys. This is load-bearing: the engine indexes joined evidence by key.
	locs := []Location{
		At(Router, "a"),
		At(LogicalLink, "a"),
		Between(Interface, "a", "b"),
		Between(LineCard, "a", "b"),
		Between(Interface, "a:b", ""), // degenerate; still distinct
	}
	seen := map[string]Location{}
	for _, l := range locs {
		if prev, dup := seen[l.Key()]; dup {
			t.Errorf("key collision: %+v and %+v -> %q", prev, l, l.Key())
		}
		seen[l.Key()] = l
	}
}
