// Package query provides the SQL-like aggregate query language that the
// TAG/Cougar systems ([9],[15]) — and the paper's introduction — envision:
// "the goal of the system is to support aggregate queries formed in an
// SQL-like language". A query names an aggregate over the network's item
// values, optionally restricted by a WHERE clause (a value interval) and
// tuned by protocol options:
//
//	SELECT median(value)
//	SELECT quantile(value, 0.99) WHERE value >= 100
//	SELECT count(value) WHERE value BETWEEN 10 AND 20
//	SELECT apxmedian(value) USING eps=0.1
//	SELECT distinct(value) USING sketch=1, m=256
//
// The package is the language only: Parse turns a statement into a Query,
// serve.QueryFor maps that onto an engine query, and engine.Submit runs
// it like any other job.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokOp // < <= > >= = !=
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex splits the input into tokens. Identifiers are lower-cased (the
// language is case-insensitive); numbers may carry a decimal point.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '<' || c == '>' || c == '=' || c == '!':
			start := i
			i++
			if i < len(input) && input[i] == '=' {
				i++
			}
			op := input[start:i]
			if op == "!" {
				return nil, fmt.Errorf("query: stray '!' at position %d", start)
			}
			toks = append(toks, token{tokOp, op, start})
		case unicode.IsDigit(c):
			start := i
			seenDot := false
			for i < len(input) && (unicode.IsDigit(rune(input[i])) || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < len(input) && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			toks = append(toks, token{tokIdent, strings.ToLower(input[start:i]), start})
		default:
			return nil, fmt.Errorf("query: unexpected character %q at position %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}
