// Package cdnassign models the CDN request-routing layer of paper §III-B:
// "through dynamic DNS binding, HTTP requests are directed to the
// 'closest' data centers and served from there." Closeness is evaluated
// against the same reconstructed network condition the RCA engine uses,
// so the package can answer the question behind the paper's repair story —
// after a routing failure, which users should DNS move to a closer node
// "as measured by the new network routing", even before the network
// itself is repaired.
package cdnassign

import (
	"fmt"
	"math"
	"sort"
	"time"

	"grca/internal/netstate"
)

// Node is one CDN data-center site.
type Node struct {
	Name   string
	Router string // attachment router inside the ISP
}

// Service is the assignment policy engine. It is immutable and safe for
// concurrent readers.
type Service struct {
	view  *netstate.View
	nodes []Node
}

// New builds an assignment service over the network view. At least one
// node is required; nodes must be registered with the view (Register on
// the cdn deployment or netstate.RegisterServer).
func New(view *netstate.View, nodes []Node) (*Service, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cdnassign: no nodes")
	}
	s := &Service{view: view}
	seen := map[string]bool{}
	for _, n := range nodes {
		if n.Name == "" || n.Router == "" {
			return nil, fmt.Errorf("cdnassign: node without name or router")
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cdnassign: duplicate node %q", n.Name)
		}
		seen[n.Name] = true
		s.nodes = append(s.nodes, n)
	}
	sort.Slice(s.nodes, func(i, j int) bool { return s.nodes[i].Name < s.nodes[j].Name })
	return s, nil
}

// Cost is one node's distance to a client at a point in time.
type Cost struct {
	Node Node
	// IGPDistance is the intradomain distance from the node's attachment
	// router to the egress carrying the client's traffic at time t;
	// unreachable clients cost math.MaxInt.
	IGPDistance int
}

// Rank evaluates every node's cost toward the client at time t, cheapest
// first (ties break by node name). The client may be a registered agent
// name or an address literal.
func (s *Service) Rank(client string, t time.Time) ([]Cost, error) {
	costs := make([]Cost, 0, len(s.nodes))
	for _, n := range s.nodes {
		c := Cost{Node: n, IGPDistance: math.MaxInt}
		if egress, err := s.view.EgressFor(n.Router, client, t); err == nil {
			c.IGPDistance = s.view.OSPF.Distance(n.Router, egress, t)
		}
		costs = append(costs, c)
	}
	sort.SliceStable(costs, func(i, j int) bool { return costs[i].IGPDistance < costs[j].IGPDistance })
	if costs[0].IGPDistance == math.MaxInt {
		return costs, fmt.Errorf("cdnassign: client %q unreachable from every node at %v", client, t)
	}
	return costs, nil
}

// Assign picks the serving node for a client at time t: the closest node
// by Rank.
func (s *Service) Assign(client string, t time.Time) (Node, error) {
	costs, err := s.Rank(client, t)
	if err != nil {
		return Node{}, err
	}
	return costs[0].Node, nil
}

// Repair is one DNS-table update the §III-B story calls for: a client
// whose best node changed between two instants (e.g. before and after a
// peering failure).
type Repair struct {
	Client   string
	From, To Node
	// Saving is the IGP-distance improvement of the move under the new
	// routing.
	Saving int
}

// PlanRepairs compares each client's best node before and after a routing
// change and returns the moves worth making — the parallel repair the CDN
// operations team applied while the network team fixed the link.
func (s *Service) PlanRepairs(clients []string, before, after time.Time) ([]Repair, error) {
	var out []Repair
	for _, client := range clients {
		prev, err := s.Assign(client, before)
		if err != nil {
			return nil, err
		}
		costs, err := s.Rank(client, after)
		if err != nil {
			return nil, err
		}
		best := costs[0]
		if best.Node == prev {
			continue
		}
		// Find the old node's cost under the new routing.
		oldCost := math.MaxInt
		for _, c := range costs {
			if c.Node == prev {
				oldCost = c.IGPDistance
			}
		}
		saving := oldCost - best.IGPDistance
		if saving <= 0 {
			continue
		}
		out = append(out, Repair{Client: client, From: prev, To: best.Node, Saving: saving})
	}
	return out, nil
}
