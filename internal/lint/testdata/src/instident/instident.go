// Package instident holds deliberately broken event-identity exemplars
// for the instident analyzer's golden test.
package instident

import "broken/instident/event"

type Node struct{ Instance *event.Instance }

// SelfSkip compares two instance pointers: a finding.
func SelfSkip(cands []*event.Instance, in *event.Instance) int {
	n := 0
	for _, c := range cands {
		if c == in {
			continue
		}
		n++
	}
	return n
}

// Dedup compares through a field, with !=: a finding.
func Dedup(seen []*event.Instance, n *Node) bool {
	for _, in := range seen {
		if in != n.Instance {
			return false
		}
	}
	return true
}

// ByID is the sanctioned comparison; nil checks and value comparisons are
// not identity and stay quiet.
func ByID(a, b *event.Instance) bool {
	if a == nil || b == nil {
		return false
	}
	return a.ID == b.ID && *a == *b
}

// Other pointer types are not the analyzer's business.
func Other(a, b *Node) bool { return a == b }
