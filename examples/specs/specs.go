// Package specs embeds the rule-specification files of the shipped RCA
// applications. Each *.grca file here is the only copy of its
// application's events, rules, breakdown title and display labels: the
// binaries read it through FS, and `grca vet examples/specs/*.grca` reads
// the same bytes from disk.
package specs

import "embed"

// FS holds every *.grca file of this directory.
//
//go:embed *.grca
var FS embed.FS
