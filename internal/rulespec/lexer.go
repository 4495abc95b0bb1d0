// Package rulespec implements G-RCA's rule specification language — the
// "simple yet flexible" configuration format (paper §I, §II-C) with which
// operators customize the platform into new RCA applications without
// programming: it declares application-specific events, redefines
// Knowledge Library events, writes application-specific diagnosis rules,
// pulls catalogue rules in with one line, and titles the root-cause
// breakdown and names its rows.
//
// Grammar (line comments start with '#'; newlines are insignificant):
//
//	spec      = app { stmt } .
//	app       = "app" STRING "root" STRING .
//	stmt      = eventDecl | redefine | ruleDecl | useDecl | title | label .
//	eventDecl = "event" STRING "{" { eventProp } "}" .
//	redefine  = "redefine" eventDecl .
//	eventProp = "loctype" IDENT | "source" (IDENT|STRING) | "desc" STRING .
//	ruleDecl  = "rule" STRING "<-" STRING "{" { ruleProp } "}" .
//	ruleProp  = "priority" NUMBER | "join" IDENT
//	          | "symptom" expansion | "diag" expansion
//	          | "note" STRING .
//	expansion = IDENT "expand" DURATION DURATION .   # IDENT: start/end etc.
//	useDecl   = "use" STRING "<-" STRING "priority" NUMBER .
//	title     = "title" STRING .              # at most once
//	label     = "label" STRING STRING .       # raw name, shown name; raw names unique
package rulespec

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokString
	tokIdent
	tokNumber
	tokLBrace
	tokRBrace
	tokArrow
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokString:
		return "string"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokArrow:
		return "'<-'"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// identRune reports whether r may appear in an identifier. Identifiers are
// permissive so location types ("router:neighbor"), expanding options
// ("start/start"), and durations ("180s", "5m30s") all lex as single
// tokens.
func identRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) ||
		strings.ContainsRune(":/._-", r)
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return l.lexToken()
		}
	}
	return token{kind: tokEOF, line: l.line}, nil
}

func (l *lexer) lexToken() (token, error) {
	c := l.src[l.pos]
	switch {
	case c == '{':
		l.pos++
		return token{kind: tokLBrace, text: "{", line: l.line}, nil
	case c == '}':
		l.pos++
		return token{kind: tokRBrace, text: "}", line: l.line}, nil
	case c == '<':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			l.pos += 2
			return token{kind: tokArrow, text: "<-", line: l.line}, nil
		}
		return token{}, fmt.Errorf("line %d: unexpected character %q", l.line, c)
	case c == '"':
		return l.lexString()
	}
	start := l.pos
	for l.pos < len(l.src) && identRune(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos == start {
		return token{}, fmt.Errorf("line %d: unexpected character %q", l.line, c)
	}
	text := l.src[start:l.pos]
	kind := tokIdent
	if isNumber(text) {
		kind = tokNumber
	}
	return token{kind: kind, text: text, line: l.line}, nil
}

func isNumber(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '-' {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

func (l *lexer) lexString() (token, error) {
	line := l.line
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			return token{kind: tokString, text: b.String(), line: line}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, fmt.Errorf("line %d: unterminated escape", line)
			}
			l.pos++
			switch e := l.src[l.pos]; e {
			case '"', '\\':
				b.WriteByte(e)
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				return token{}, fmt.Errorf("line %d: unknown escape \\%c", line, e)
			}
			l.pos++
		case '\n':
			return token{}, fmt.Errorf("line %d: newline in string literal", line)
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return token{}, fmt.Errorf("line %d: unterminated string", line)
}
