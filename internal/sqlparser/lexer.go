// Package sqlparser implements a SQL lexer, abstract syntax tree, recursive
// descent parser, and pretty-printer for the SQL dialect the paper's queries
// (Q1–Q9, the EMP/DEPT example, and DML/DDL) are written in: SELECT with
// arbitrary joins and tuple variables, nested subqueries via IN / EXISTS /
// ANY / ALL, aggregates with GROUP BY and HAVING (including scalar
// subqueries in HAVING), ORDER BY, DISTINCT, and INSERT / UPDATE / DELETE /
// CREATE TABLE / CREATE VIEW.
package sqlparser

import (
	"fmt"
	"strings"
)

// TokenKind identifies the lexical class of a token.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp // operators and punctuation: = < > <= >= != <> + - * / ( ) , . ;
	TokInvalid
)

// String names the kind for diagnostics.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokKeyword:
		return "keyword"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokOp:
		return "operator"
	default:
		return "invalid token"
	}
}

// Token is one lexical unit with its source position (1-based line/column).
type Token struct {
	Kind TokenKind
	Text string // keywords are uppercased; identifiers keep original case
	Line int
	Col  int
}

// keywords is the reserved-word list of the dialect. Anything else lexes as
// an identifier.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "EXISTS": true,
	"ALL": true, "ANY": true, "SOME": true, "BETWEEN": true, "LIKE": true,
	"IS": true, "NULL": true, "DISTINCT": true, "AS": true, "JOIN": true,
	"INNER": true, "LEFT": true, "RIGHT": true, "OUTER": true, "ON": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "VIEW": true,
	"PRIMARY": true, "KEY": true, "FOREIGN": true, "REFERENCES": true,
	"TRUE": true, "FALSE": true, "DATE": true, "UNION": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
}

// Lexer scans SQL text into tokens.
type Lexer struct {
	src string
	pos int // where Scan resumes
	// line is the 1-based line of offset seen, which lies on the line that
	// begins at offset bol: Next counts newlines forward from seen.
	line, bol, seen int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// Tokenize scans the whole input, returning tokens without the trailing EOF.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return toks, err
		}
		if tok.Kind == TokEOF {
			return toks, nil
		}
		toks = append(toks, tok)
	}
}

// Scan advances past the next token and returns its kind, its byte span
// src[start:end], and whether space or a comment came before it. It is the one
// place that decides the dialect's lexical rules, what a token, a comment, a
// quote and a gap are: Next builds the parser's tokens on it and
// cache.NormalizeSQL builds the cache key on it.
//
// A gap is any run of space, tab, LF and CR, "--" comments to the end of the
// line and "/* */" comments (an unterminated one runs to the end of input).
// Scan's kinds are coarser than Next's: a bare word is TokIdent whether or not
// it is reserved, and a quoted run, a single-quoted string or a double-quoted
// identifier, is TokString. Scan goes on past an invalid token: one unexpected
// byte, an unterminated quote running to the end of input, or the digits of a
// number that runs into a letter. At the end of input it returns TokEOF with
// start == end == len(src). Scan does not allocate.
func (lx *Lexer) Scan() (kind TokenKind, start, end int, gap bool) {
	src, i := lx.src, lx.pos
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			i = skipPast(src, i+2, "\n")
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i = skipPast(src, i+2, "*/")
		default:
			kind, end = scanToken(src, i)
			lx.pos = end
			return kind, i, end, gap
		}
		gap = true
	}
	lx.pos = i
	return TokEOF, i, i, gap
}

// skipPast returns the offset just past the first mark at or after i, or
// len(src) when there is none.
func skipPast(src string, i int, mark string) int {
	if j := strings.Index(src[i:], mark); j >= 0 {
		return i + j + len(mark)
	}
	return len(src)
}

// scanToken returns the kind and end of the token that begins at src[i], not
// space or a comment (see Scan).
func scanToken(src string, i int) (TokenKind, int) {
	c := src[i]
	switch {
	case isIdentStart(c):
		j := i + 1
		for j < len(src) && isIdentPart(src[j]) {
			j++
		}
		return TokIdent, j
	case isDigit(c) || c == '.' && i+1 < len(src) && isDigit(src[i+1]):
		j, dot := i, false
		for j < len(src) {
			if !isDigit(src[j]) {
				if src[j] != '.' || dot || j+1 == len(src) || !isDigit(src[j+1]) {
					break
				}
				dot = true
			}
			j++
		}
		if j < len(src) && isIdentStart(src[j]) {
			return TokInvalid, j
		}
		return TokNumber, j
	case c == '\'':
		for j := i + 1; ; {
			k := strings.IndexByte(src[j:], '\'')
			if k < 0 {
				return TokInvalid, len(src)
			}
			j += k + 1
			if j == len(src) || src[j] != '\'' {
				return TokString, j
			}
			j++ // '' is an escaped quote
		}
	case c == '"':
		if k := strings.IndexByte(src[i+1:], '"'); k >= 0 {
			return TokString, i + k + 2
		}
		return TokInvalid, len(src)
	}
	if i+1 < len(src) {
		if c2 := src[i+1]; c2 == '=' && (c == '<' || c == '>' || c == '!') || c == '<' && c2 == '>' {
			return TokOp, i + 2
		}
	}
	if strings.IndexByte("=<>+-*/(),.;%", c) >= 0 {
		return TokOp, i + 1
	}
	return TokInvalid, i + 1
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Next returns the next token, with keywords uppercased, quotes and escapes
// stripped from strings and quoted identifiers, and "<>" spelled "!=". An
// invalid token comes with its error.
func (lx *Lexer) Next() (Token, error) {
	kind, start, end, _ := lx.Scan()
	line, col := lx.lineCol(start)
	text := lx.src[start:end]
	tok := Token{Kind: kind, Text: text, Line: line, Col: col}
	switch kind {
	case TokIdent:
		if upper := strings.ToUpper(text); keywords[upper] {
			tok.Kind, tok.Text = TokKeyword, upper
		}
	case TokString:
		tok.Text = text[1 : len(text)-1]
		if text[0] == '"' {
			tok.Kind = TokIdent
		} else {
			tok.Text = strings.ReplaceAll(tok.Text, "''", "'")
		}
	case TokOp:
		if text == "<>" {
			tok.Text = "!="
		}
	case TokInvalid:
		switch c := text[0]; {
		case c == '\'':
			tok.Text = ""
			return tok, fmt.Errorf("sql:%d:%d: unterminated string literal", line, col)
		case c == '"':
			tok.Text = ""
			return tok, fmt.Errorf("sql:%d:%d: unterminated quoted identifier", line, col)
		case c == '.' || isDigit(c):
			// The number's text ends at the letter it runs into.
			return tok, fmt.Errorf("sql:%d:%d: malformed number %q", line, col, lx.src[start:end+1])
		default:
			// The byte reads as a Latin-1 rune: "\xff" is quoted as "ÿ".
			tok.Text = string(rune(c))
			return tok, fmt.Errorf("sql:%d:%d: unexpected character %q", line, col, tok.Text)
		}
	}
	return tok, nil
}

// lineCol returns the 1-based line and byte column of offset off, which is
// at or past every offset asked about before.
func (lx *Lexer) lineCol(off int) (line, col int) {
	since := lx.src[lx.seen:off]
	if n := strings.Count(since, "\n"); n > 0 {
		lx.line += n
		lx.bol = lx.seen + strings.LastIndexByte(since, '\n') + 1
	}
	lx.seen = off
	return lx.line, off - lx.bol + 1
}
