package sqlparser

import (
	"strings"
	"testing"

	"repro/internal/value"
)

// TestPrinterBranches exercises SQL() rendering paths not covered by the
// round-trip corpus.
func TestPrinterBranches(t *testing.T) {
	cases := []struct {
		expr Expr
		want string
	}{
		{&NotExpr{Inner: &BinaryExpr{Op: OpAnd,
			Left:  &ColumnRef{Table: "a", Column: "x"},
			Right: &ColumnRef{Table: "a", Column: "y"}}},
			"NOT (a.x AND a.y)"},
		{&NotExpr{Inner: &ColumnRef{Column: "flag"}}, "NOT flag"},
		{&IsNullExpr{Inner: &ColumnRef{Column: "x"}, Negate: true}, "x IS NOT NULL"},
		{&BetweenExpr{Subject: &ColumnRef{Column: "y"},
			Lo: &Literal{Value: value.NewInt(1)}, Hi: &Literal{Value: value.NewInt(2)},
			Negate: true},
			"y NOT BETWEEN 1 AND 2"},
		{&QuantifiedExpr{Subject: &ColumnRef{Column: "x"}, Op: OpGt, All: false,
			Subquery: &SelectStmt{Items: []SelectItem{{Expr: &Star{}}}, Limit: -1}},
			"x > ANY (SELECT *)"},
		{&InExpr{Subject: &ColumnRef{Column: "x"}, Negate: true,
			List: []Expr{&Literal{Value: value.NewInt(1)}}},
			"x NOT IN (1)"},
		{&ExistsExpr{Negate: true,
			Subquery: &SelectStmt{Items: []SelectItem{{Expr: &Star{}}}, Limit: -1}},
			"NOT EXISTS (SELECT *)"},
		{&AggregateExpr{Func: AggSum, Arg: &ColumnRef{Column: "x"}, Distinct: true},
			"SUM(DISTINCT x)"},
	}
	for _, c := range cases {
		if got := c.expr.SQL(); got != c.want {
			t.Errorf("SQL() = %q, want %q", got, c.want)
		}
	}
}

func TestPrinterParenthesizesMixedBooleans(t *testing.T) {
	// a AND (b OR c) must keep its parentheses when printed.
	sel := mustSelect(t, "select * from T t where t.a = 1 and (t.b = 2 or t.c = 3)")
	printed := sel.SQL()
	again, err := ParseSelect(printed)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	if again.SQL() != printed {
		t.Errorf("fixpoint: %q vs %q", printed, again.SQL())
	}
	// Semantically: the top operator must still be AND.
	if b, ok := again.Where.(*BinaryExpr); !ok || b.Op != OpAnd {
		t.Errorf("structure lost: %#v", again.Where)
	}
}

func TestJoinKindStrings(t *testing.T) {
	if JoinInner.String() != "JOIN" || JoinLeft.String() != "LEFT JOIN" || JoinRight.String() != "RIGHT JOIN" {
		t.Error("join kind names")
	}
}

func TestTokenKindStrings(t *testing.T) {
	for k, want := range map[TokenKind]string{
		TokEOF: "end of input", TokIdent: "identifier", TokKeyword: "keyword",
		TokNumber: "number", TokString: "string", TokOp: "operator",
		TokInvalid: "invalid token",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestAggFuncStrings(t *testing.T) {
	for f, want := range map[AggFunc]string{
		AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
	} {
		if f.String() != want {
			t.Errorf("%d.String() = %q", int(f), f.String())
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[BinaryOp]string{
		OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
		OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*",
		OpDiv: "/", OpMod: "%", OpLike: "LIKE",
	} {
		if op.String() != want {
			t.Errorf("op %d = %q, want %q", int(op), op.String(), want)
		}
	}
}

func TestSelectItemAndOrderItemSQL(t *testing.T) {
	it := SelectItem{Expr: &ColumnRef{Table: "m", Column: "title"}, Alias: "t"}
	if it.SQL() != "m.title AS t" {
		t.Errorf("item = %q", it.SQL())
	}
	oi := OrderItem{Expr: &ColumnRef{Column: "x"}, Desc: true}
	if oi.SQL() != "x DESC" {
		t.Errorf("order item = %q", oi.SQL())
	}
}

func TestCreateViewAndInsertSelectSQL(t *testing.T) {
	stmt, err := Parse("create view V as select t.x from T t")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stmt.SQL(), "CREATE VIEW V AS SELECT") {
		t.Errorf("view SQL = %q", stmt.SQL())
	}
	ins, err := Parse("insert into T select u.x from U u")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ins.SQL(), "INSERT INTO T SELECT") {
		t.Errorf("insert-select SQL = %q", ins.SQL())
	}
}

func TestLexerDirect(t *testing.T) {
	lx := NewLexer("select 'a''b' -- comment\n42")
	tok, err := lx.Next()
	if err != nil || tok.Kind != TokKeyword || tok.Text != "SELECT" {
		t.Fatalf("tok1 = %+v, %v", tok, err)
	}
	tok, err = lx.Next()
	if err != nil || tok.Kind != TokString || tok.Text != "a'b" {
		t.Fatalf("tok2 = %+v, %v", tok, err)
	}
	tok, err = lx.Next()
	if err != nil || tok.Kind != TokNumber || tok.Text != "42" {
		t.Fatalf("tok3 = %+v, %v", tok, err)
	}
	tok, err = lx.Next()
	if err != nil || tok.Kind != TokEOF {
		t.Fatalf("tok4 = %+v, %v", tok, err)
	}
}

// TestScan pins the scanner that both the parser and the cache key read:
// spans, gaps and coarse kinds, going on past every kind of invalid token,
// and the error texts Next gives those tokens.
func TestScan(t *testing.T) {
	src := "SELECT x1 /* c */'it''s'\"Q\"<>.5 9a -- c\n\xff'open"
	want := []struct {
		kind TokenKind
		text string
		gap  bool
	}{
		{TokIdent, "SELECT", false}, {TokIdent, "x1", true}, {TokString, "'it''s'", true},
		{TokString, `"Q"`, false}, {TokOp, "<>", false}, {TokNumber, ".5", false},
		{TokInvalid, "9", true}, {TokIdent, "a", false}, {TokInvalid, "\xff", true},
		{TokInvalid, "'open", false}, {TokEOF, "", false},
	}
	lx := NewLexer(src)
	for i, w := range want {
		kind, start, end, gap := lx.Scan()
		if kind != w.kind || src[start:end] != w.text || gap != w.gap {
			t.Fatalf("token %d = %v %q gap %v, want %v %q gap %v", i, kind, src[start:end], gap, w.kind, w.text, w.gap)
		}
	}
	for src, want := range map[string]string{
		"select\n  9a": `sql:2:3: malformed number "9a"`,
		"x \xff":       `sql:1:3: unexpected character "ÿ"`, // the byte read as a Latin-1 rune
		"x 'open":      "sql:1:3: unterminated string literal",
		`x "open`:      "sql:1:3: unterminated quoted identifier",
	} {
		if _, err := Tokenize(src); err == nil || err.Error() != want {
			t.Errorf("Tokenize(%q) error = %v, want %s", src, err, want)
		}
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	sel := mustSelect(t, `select t."strange name" from T t`)
	c := sel.Items[0].Expr.(*ColumnRef)
	if c.Column != "strange name" {
		t.Errorf("quoted ident = %q", c.Column)
	}
	if _, err := Parse(`select "unterminated from T`); err == nil {
		t.Error("unterminated quoted ident accepted")
	}
}

func TestFloatLiterals(t *testing.T) {
	sel := mustSelect(t, "select 3.25, .5 from T t")
	if sel.Items[0].Expr.(*Literal).Value.Float() != 3.25 {
		t.Error("float literal")
	}
	if sel.Items[1].Expr.(*Literal).Value.Float() != 0.5 {
		t.Error("leading-dot float literal")
	}
}

func TestBlockCommentUnterminated(t *testing.T) {
	// An unterminated block comment consumes the rest of input; the parser
	// then fails on missing FROM contents.
	if _, err := Parse("select * from T t /* never closed"); err != nil {
		t.Logf("unterminated comment rejected: %v (acceptable)", err)
	}
}

func TestParseQ6Verbatim(t *testing.T) {
	// The paper's literal Q6 text (with its alias inconsistencies) must
	// still parse — translation is what rejects it, not the parser.
	if _, err := ParseSelect(PaperQ6Verbatim); err != nil {
		t.Errorf("verbatim Q6 does not parse: %v", err)
	}
}
