// Package locus implements the G-RCA network location model (Fig. 2 of the
// paper). Every event carries a Location; a Location has a Type drawn from
// the fixed set of location types the spatial model understands, and one or
// two element identifiers.
//
// Single-element types (Router, LogicalLink, ...) use only field A. Scoped
// element types (Interface, LineCard) use A for the owning router and B for
// the element within it, matching the paper's notation
// "newyork-router1:serial-interface0". Pair types (IngressEgress,
// SourceDestination, ...) use A and B for the two endpoints; the paper's
// notation "A:B" denotes all network locations between points A and B.
package locus

import (
	"fmt"
	"strings"
)

// Type enumerates the location types of the G-RCA spatial model.
type Type uint8

// Location types. The ordering groups single-element types, router-scoped
// types, and endpoint-pair types.
const (
	// None is the zero Type; it marks an unset or unlocated event.
	None Type = iota

	// Router identifies a single router by canonical name.
	Router
	// PoP identifies a point of presence.
	PoP
	// LogicalLink identifies a layer-3 point-to-point link by canonical ID.
	LogicalLink
	// PhysicalLink identifies one physical circuit carrying a logical link.
	PhysicalLink
	// Layer1Device identifies a SONET or optical-mesh network element.
	Layer1Device
	// Server identifies a service element outside the routing plane: a CDN
	// server or a whole CDN node (data-center site).
	Server

	// Interface identifies an interface: A = router, B = interface name.
	Interface
	// LineCard identifies a line card: A = router, B = slot.
	LineCard
	// RouterNeighbor identifies a protocol adjacency seen from one router:
	// A = router, B = neighbor IP (typically outside the ISP).
	RouterNeighbor

	// IngressEgress spans the backbone between two ISP routers.
	IngressEgress
	// IngressDestination spans from an ISP ingress router to an external
	// destination address or prefix.
	IngressDestination
	// SourceDestination spans between two endpoints outside the ISP.
	SourceDestination
	// SourceIngress spans from an external source to the ISP ingress router.
	SourceIngress
	// EgressDestination spans from the ISP egress router to the destination.
	EgressDestination
	// ServerClient identifies a CDN server and a client measurement agent.
	ServerClient

	numTypes
)

var typeNames = [...]string{
	None:               "none",
	Router:             "router",
	PoP:                "pop",
	LogicalLink:        "logical-link",
	PhysicalLink:       "physical-link",
	Layer1Device:       "layer1-device",
	Server:             "server",
	Interface:          "interface",
	LineCard:           "line-card",
	RouterNeighbor:     "router:neighbor",
	IngressEgress:      "ingress:egress",
	IngressDestination: "ingress:destination",
	SourceDestination:  "source:destination",
	SourceIngress:      "source:ingress",
	EgressDestination:  "egress:destination",
	ServerClient:       "server:client",
}

// String returns the canonical lower-case name of the type, as used by the
// rule-specification language.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("locus.Type(%d)", uint8(t))
}

// Valid reports whether t is one of the defined location types (not None).
func (t Type) Valid() bool { return t > None && t < numTypes }

// Span reports whether the type denotes all locations between two endpoints
// (the paper's "A:B" notation) rather than a concrete element.
func (t Type) Span() bool { return t >= IngressEgress && t < numTypes }

// ParseType resolves a type name as written in the rule-specification
// language. It accepts the canonical names from String.
func ParseType(s string) (Type, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	for t := None + 1; t < numTypes; t++ {
		if typeNames[t] == s {
			return t, nil
		}
	}
	return None, fmt.Errorf("locus: unknown location type %q", s)
}

// A Location is a concrete place in the network at which an event occurred.
// The zero Location has Type None and matches nothing.
type Location struct {
	Type Type
	A    string
	B    string
}

// At constructs a single-element Location.
func At(t Type, a string) Location { return Location{Type: t, A: a} }

// Between constructs a two-element Location (scoped element or span).
func Between(t Type, a, b string) Location { return Location{Type: t, A: a, B: b} }

// String renders the location in the paper's "A" / "A:B" notation.
func (l Location) String() string {
	if l.Type == None {
		return "<nowhere>"
	}
	if l.B == "" {
		return l.A
	}
	return l.A + ":" + l.B
}

// Key returns a string usable as a map key, unambiguous across types.
func (l Location) Key() string {
	return l.Type.String() + "|" + l.A + "|" + l.B
}

// IsZero reports whether the location is unset.
func (l Location) IsZero() bool { return l.Type == None && l.A == "" && l.B == "" }
