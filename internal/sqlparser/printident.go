package sqlparser

import "strings"

// quoteIdent renders an identifier so it re-lexes as the same identifier:
// plain names print bare, while names that collide with reserved words, are
// empty, or contain characters that would lex differently come back
// double-quoted. Quoted identifiers cannot contain a double quote (the
// lexer has no escape), and the parser never produces one.
func quoteIdent(s string) string {
	if plainIdent(s) && !keywords[strings.ToUpper(s)] {
		return s
	}
	return `"` + s + `"`
}

// plainIdent reports whether s lexes as one bare word: the lexer's
// identifier rule is the only one.
func plainIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	return true
}

// quoteIdents maps quoteIdent over a list (INSERT column lists, keys).
func quoteIdents(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = quoteIdent(n)
	}
	return out
}
