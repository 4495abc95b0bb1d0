package netstate

import "grca/internal/locus"

// pathLevels are the join levels a router-pair span (the §II-B item 3
// shortest-path expansion) can produce: every element class that appears
// on an OSPF path.
var pathLevels = []locus.Type{
	locus.Router, locus.LogicalLink, locus.Interface, locus.Layer1Device, locus.PoP,
}

// ifaceLevels are the join levels an interface anchor can produce.
var ifaceLevels = []locus.Type{
	locus.Interface, locus.Router, locus.PoP, locus.LineCard,
	locus.LogicalLink, locus.PhysicalLink, locus.Layer1Device,
}

// convertible is the static image of View.Expand: convertible[from] lists
// every target type some location of type `from` can expand to, given
// suitable topology and routing state. It deliberately over-approximates
// nothing — each entry corresponds to a switch arm in expand and its
// helpers — so a (from, level) pair absent here ALWAYS fails at diagnosis
// time with "no conversion", which is exactly what grca vet flags before
// deployment. TestConvertibleToMatchesExpand cross-checks this table
// against the dynamic implementation.
var convertible = map[locus.Type][]locus.Type{
	locus.Router:       {locus.Router, locus.PoP, locus.LineCard, locus.Interface},
	locus.PoP:          {locus.PoP},
	locus.LogicalLink:  {locus.LogicalLink, locus.Interface, locus.Router, locus.PhysicalLink, locus.Layer1Device},
	locus.PhysicalLink: {locus.PhysicalLink, locus.Layer1Device, locus.LogicalLink},
	locus.Layer1Device: {locus.Layer1Device},
	locus.Server:       {locus.Server, locus.Router},
	locus.Interface:    ifaceLevels,
	locus.LineCard:     {locus.LineCard, locus.Router, locus.Interface},
	// An adjacency anchors at its attachment interface (external
	// neighbor) or spans the backbone path between the two routers
	// (internal neighbor); either way the interface and path levels are
	// reachable.
	locus.RouterNeighbor: append([]locus.Type{locus.RouterNeighbor}, ifaceLevels...),
	locus.IngressEgress:  append([]locus.Type{locus.IngressEgress}, pathLevels...),
	locus.IngressDestination: append([]locus.Type{
		locus.IngressDestination, locus.IngressEgress}, pathLevels...),
	locus.SourceDestination: append([]locus.Type{
		locus.SourceDestination, locus.SourceIngress, locus.EgressDestination,
		locus.IngressDestination, locus.IngressEgress}, pathLevels...),
	locus.SourceIngress:     {locus.SourceIngress, locus.Router, locus.PoP, locus.Interface},
	locus.EgressDestination: {locus.EgressDestination, locus.Router, locus.PoP},
	locus.ServerClient: append([]locus.Type{
		locus.ServerClient, locus.Server, locus.IngressDestination,
		locus.IngressEgress}, pathLevels...),
}

// ConvertibleTo reports whether the spatial model can ever convert a
// location of type `from` into locations of type `to` — i.e. whether a
// diagnosis rule joining an event located at `from` at join level `to`
// is feasible. It is a static property of the conversion lattice; the
// dynamic expansion may still yield an empty set (no route, no circuit)
// for particular locations and times.
func ConvertibleTo(from, to locus.Type) bool {
	if !from.Valid() || !to.Valid() {
		return false
	}
	if from == to {
		return true
	}
	for _, t := range convertible[from] {
		if t == to {
			return true
		}
	}
	return false
}
