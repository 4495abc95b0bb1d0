// Package event mirrors the real event package's Instance for the
// instident analyzer's golden test.
package event

type Instance struct {
	ID   int
	Name string
}
