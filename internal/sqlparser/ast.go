package sqlparser

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	// SQL renders the statement back to SQL text.
	SQL() string
}

// Expr is any scalar or boolean expression.
type Expr interface {
	expr()
	// SQL renders the expression back to SQL text.
	SQL() string
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// ColumnRef is a possibly-qualified column reference: name, or alias.name.
type ColumnRef struct {
	Table  string // tuple-variable alias or relation name; may be empty
	Column string
}

func (*ColumnRef) expr() {}

// SQL renders the reference.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		if c.Column == "*" {
			return quoteIdent(c.Table) + ".*"
		}
		return quoteIdent(c.Table) + "." + quoteIdent(c.Column)
	}
	return quoteIdent(c.Column)
}

// Literal is a constant value.
type Literal struct {
	Value value.Value
}

func (*Literal) expr() {}

// SQL renders the literal.
func (l *Literal) SQL() string { return l.Value.SQL() }

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators, comparison first, then boolean, then arithmetic.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLike
)

// String renders the operator in SQL.
func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpLike:
		return "LIKE"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// IsComparison reports whether the operator compares two scalars.
func (op BinaryOp) IsComparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike:
		return true
	}
	return false
}

// Inverse returns the comparison with swapped operands (a < b ⇔ b > a).
func (op BinaryOp) Inverse() BinaryOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// Negate returns the logical negation of a comparison (a < b ⇔ ¬(a >= b)).
func (op BinaryOp) Negate() BinaryOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	default:
		return op
	}
}

// BinaryExpr applies Op to Left and Right.
type BinaryExpr struct {
	Op    BinaryOp
	Left  Expr
	Right Expr
}

func (*BinaryExpr) expr() {}

// Binding strengths, loosest first: how tightly the grammar binds an
// expression as an operand.
const (
	precOr = iota + 1
	precAnd
	precNot
	precCompare // comparisons, LIKE, IN, BETWEEN, IS NULL, EXISTS, quantified
	precAdd
	precMul
	precAtom // literals, columns, aggregates, CASE, parenthesized forms
)

// Precedence is how tightly the grammar binds e as an operand: a larger
// number binds more tightly.
func Precedence(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case OpOr:
			return precOr
		case OpAnd:
			return precAnd
		case OpAdd, OpSub:
			return precAdd
		case OpMul, OpDiv, OpMod:
			return precMul
		}
		return precCompare
	case *NotExpr:
		return precNot
	case *IsNullExpr, *BetweenExpr, *InExpr, *ExistsExpr, *QuantifiedExpr:
		return precCompare
	}
	return precAtom
}

// operand renders e in a position the grammar parses at binding strength
// min, parenthesized when e binds more loosely.
func operand(e Expr, min int) string {
	if Precedence(e) < min {
		return "(" + e.SQL() + ")"
	}
	return e.SQL()
}

// SQL renders the expression so that it parses back to the same tree: an
// operand that binds more loosely than the operator is parenthesized, and so
// is a right operand that binds equally, since every binary operator parses
// left-associatively (and comparisons not at all, so a left comparison
// operand of a comparison is parenthesized too).
func (b *BinaryExpr) SQL() string {
	p := Precedence(b)
	left := p
	if p == precCompare {
		left++
	}
	return operand(b.Left, left) + " " + b.Op.String() + " " + operand(b.Right, p+1)
}

// NotExpr is logical negation.
type NotExpr struct {
	Inner Expr
}

func (*NotExpr) expr() {}

// SQL renders NOT with parentheses around compound operands, and around
// EXISTS, which NOT would otherwise fold into NOT EXISTS.
func (n *NotExpr) SQL() string {
	switch n.Inner.(type) {
	case *BinaryExpr, *ExistsExpr:
		return "NOT (" + n.Inner.SQL() + ")"
	default:
		return "NOT " + n.Inner.SQL()
	}
}

// IsNullExpr tests an expression for NULL.
type IsNullExpr struct {
	Inner  Expr
	Negate bool // IS NOT NULL
}

func (*IsNullExpr) expr() {}

// SQL renders the test.
func (e *IsNullExpr) SQL() string {
	if e.Negate {
		return operand(e.Inner, precAdd) + " IS NOT NULL"
	}
	return operand(e.Inner, precAdd) + " IS NULL"
}

// BetweenExpr is x BETWEEN lo AND hi.
type BetweenExpr struct {
	Subject Expr
	Lo, Hi  Expr
	Negate  bool
}

func (*BetweenExpr) expr() {}

// SQL renders the range test.
func (e *BetweenExpr) SQL() string {
	not := ""
	if e.Negate {
		not = "NOT "
	}
	return operand(e.Subject, precAdd) + " " + not + "BETWEEN " + operand(e.Lo, precAdd) + " AND " + operand(e.Hi, precAdd)
}

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String names the function in SQL.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("agg(%d)", int(f))
	}
}

// AggregateExpr is an aggregate function application. Arg nil means
// COUNT(*).
type AggregateExpr struct {
	Func     AggFunc
	Arg      Expr // nil for COUNT(*)
	Distinct bool
}

func (*AggregateExpr) expr() {}

// SQL renders the aggregate.
func (a *AggregateExpr) SQL() string {
	if a.Arg == nil {
		return a.Func.String() + "(*)"
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return a.Func.String() + "(" + d + a.Arg.SQL() + ")"
}

// InExpr is `subject [NOT] IN (subquery | value list)`.
type InExpr struct {
	Subject  Expr
	Negate   bool
	Subquery *SelectStmt // exactly one of Subquery/List is set
	List     []Expr
}

func (*InExpr) expr() {}

// SQL renders the membership test.
func (e *InExpr) SQL() string {
	not := ""
	if e.Negate {
		not = "NOT "
	}
	subj := operand(e.Subject, precAdd)
	if e.Subquery != nil {
		return subj + " " + not + "IN (" + e.Subquery.SQL() + ")"
	}
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = operand(x, precAdd)
	}
	return subj + " " + not + "IN (" + strings.Join(parts, ", ") + ")"
}

// ExistsExpr is `[NOT] EXISTS (subquery)`.
type ExistsExpr struct {
	Negate   bool
	Subquery *SelectStmt
}

func (*ExistsExpr) expr() {}

// SQL renders the existence test.
func (e *ExistsExpr) SQL() string {
	not := ""
	if e.Negate {
		not = "NOT "
	}
	return not + "EXISTS (" + e.Subquery.SQL() + ")"
}

// QuantifiedExpr is `subject op ALL|ANY (subquery)`.
type QuantifiedExpr struct {
	Subject  Expr
	Op       BinaryOp // comparison
	All      bool     // true = ALL, false = ANY/SOME
	Subquery *SelectStmt
}

func (*QuantifiedExpr) expr() {}

// SQL renders the quantified comparison.
func (e *QuantifiedExpr) SQL() string {
	q := "ANY"
	if e.All {
		q = "ALL"
	}
	return operand(e.Subject, precAdd) + " " + e.Op.String() + " " + q + " (" + e.Subquery.SQL() + ")"
}

// SubqueryExpr is a scalar subquery used as an expression, e.g.
// `1 < (SELECT COUNT(*) FROM ...)`.
type SubqueryExpr struct {
	Subquery *SelectStmt
}

func (*SubqueryExpr) expr() {}

// SQL renders the scalar subquery.
func (e *SubqueryExpr) SQL() string { return "(" + e.Subquery.SQL() + ")" }

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // may be nil
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*CaseExpr) expr() {}

// SQL renders the CASE expression.
func (e *CaseExpr) SQL() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		b.WriteString(" WHEN " + w.Cond.SQL() + " THEN " + w.Then.SQL())
	}
	if e.Else != nil {
		b.WriteString(" ELSE " + e.Else.SQL())
	}
	b.WriteString(" END")
	return b.String()
}

// Star is the bare `*` select item.
type Star struct{}

func (*Star) expr() {}

// SQL renders the star.
func (*Star) SQL() string { return "*" }

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// SelectItem is one output column with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// SQL renders the select item.
func (s SelectItem) SQL() string {
	if s.Alias != "" {
		return s.Expr.SQL() + " AS " + quoteIdent(s.Alias)
	}
	return s.Expr.SQL()
}

// TableRef is one FROM entry: a base relation with an optional tuple-variable
// alias, or a joined table chain.
type TableRef struct {
	Relation string
	Alias    string
	// Join links an explicit JOIN ... ON chain; nil for comma-style FROM.
	Join *JoinClause
}

// JoinClause chains an explicit join onto a TableRef.
type JoinClause struct {
	Kind  JoinKind
	Right *TableRef
	On    Expr
}

// JoinKind enumerates explicit join types.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinRight
)

// String renders the join keyword.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	default:
		return "JOIN"
	}
}

// SQL renders the table reference including any join chain.
func (t *TableRef) SQL() string {
	s := quoteIdent(t.Relation)
	if t.Alias != "" {
		s += " " + quoteIdent(t.Alias)
	}
	for j := t.Join; j != nil; {
		s += " " + j.Kind.String() + " " + quoteIdent(j.Right.Relation)
		if j.Right.Alias != "" {
			s += " " + quoteIdent(j.Right.Alias)
		}
		if j.On != nil {
			s += " ON " + j.On.SQL()
		}
		j = j.Right.Join
	}
	return s
}

// Name returns the name the table is referred to by: the alias when present,
// the relation name otherwise.
func (t *TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Relation
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SQL renders the order item.
func (o OrderItem) SQL() string {
	if o.Desc {
		return o.Expr.SQL() + " DESC"
	}
	return o.Expr.SQL()
}

// SelectStmt is a (possibly nested) SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []*TableRef
	Where    Expr // nil when absent
	GroupBy  []Expr
	Having   Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

func (*SelectStmt) stmt() {}

// SQL renders the query.
func (s *SelectStmt) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.SQL())
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(t.SQL())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.SQL())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// DML / DDL
// ---------------------------------------------------------------------------

// InsertStmt is INSERT INTO rel [(cols)] VALUES (...), (...) | SELECT.
type InsertStmt struct {
	Relation string
	Columns  []string
	Rows     [][]Expr
	Query    *SelectStmt // INSERT ... SELECT, mutually exclusive with Rows
}

func (*InsertStmt) stmt() {}

// SQL renders the insert.
func (s *InsertStmt) SQL() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + quoteIdent(s.Relation))
	if len(s.Columns) > 0 {
		b.WriteString(" (" + strings.Join(quoteIdents(s.Columns), ", ") + ")")
	}
	if s.Query != nil {
		b.WriteString(" " + s.Query.SQL())
		return b.String()
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		parts := make([]string, len(row))
		for j, e := range row {
			parts[j] = e.SQL()
		}
		b.WriteString("(" + strings.Join(parts, ", ") + ")")
	}
	return b.String()
}

// Assignment is one SET column = expr.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE rel SET ... [WHERE ...].
type UpdateStmt struct {
	Relation string
	Alias    string
	Set      []Assignment
	Where    Expr
}

func (*UpdateStmt) stmt() {}

// SQL renders the update.
func (s *UpdateStmt) SQL() string {
	var b strings.Builder
	b.WriteString("UPDATE " + quoteIdent(s.Relation))
	if s.Alias != "" {
		b.WriteString(" " + quoteIdent(s.Alias))
	}
	b.WriteString(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteIdent(a.Column) + " = " + a.Value.SQL())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL())
	}
	return b.String()
}

// DeleteStmt is DELETE FROM rel [WHERE ...].
type DeleteStmt struct {
	Relation string
	Alias    string
	Where    Expr
}

func (*DeleteStmt) stmt() {}

// SQL renders the delete.
func (s *DeleteStmt) SQL() string {
	var b strings.Builder
	b.WriteString("DELETE FROM " + quoteIdent(s.Relation))
	if s.Alias != "" {
		b.WriteString(" " + quoteIdent(s.Alias))
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL())
	}
	return b.String()
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    string
	NotNull bool
}

// ForeignKeyDef is one FOREIGN KEY clause in CREATE TABLE.
type ForeignKeyDef struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// CreateTableStmt is CREATE TABLE with column and constraint clauses.
type CreateTableStmt struct {
	Name        string
	Columns     []ColumnDef
	PrimaryKey  []string
	ForeignKeys []ForeignKeyDef
}

func (*CreateTableStmt) stmt() {}

// SQL renders the DDL.
func (s *CreateTableStmt) SQL() string {
	var parts []string
	for _, c := range s.Columns {
		p := quoteIdent(c.Name) + " " + c.Type
		if c.NotNull {
			p += " NOT NULL"
		}
		parts = append(parts, p)
	}
	if len(s.PrimaryKey) > 0 {
		parts = append(parts, "PRIMARY KEY ("+strings.Join(quoteIdents(s.PrimaryKey), ", ")+")")
	}
	for _, fk := range s.ForeignKeys {
		parts = append(parts, "FOREIGN KEY ("+strings.Join(quoteIdents(fk.Columns), ", ")+") REFERENCES "+
			quoteIdent(fk.RefTable)+" ("+strings.Join(quoteIdents(fk.RefColumns), ", ")+")")
	}
	return "CREATE TABLE " + quoteIdent(s.Name) + " (" + strings.Join(parts, ", ") + ")"
}

// ExplainStmt is EXPLAIN [PLAN] select: execute the query and report the
// cost-based plan with estimated and actual row counts per step.
type ExplainStmt struct {
	Query *SelectStmt
}

func (*ExplainStmt) stmt() {}

// SQL renders the statement in its canonical EXPLAIN PLAN form.
func (s *ExplainStmt) SQL() string { return "EXPLAIN PLAN " + s.Query.SQL() }

// CreateViewStmt is CREATE VIEW name AS select.
type CreateViewStmt struct {
	Name  string
	Query *SelectStmt
}

func (*CreateViewStmt) stmt() {}

// SQL renders the view definition.
func (s *CreateViewStmt) SQL() string {
	return "CREATE VIEW " + quoteIdent(s.Name) + " AS " + s.Query.SQL()
}

// ---------------------------------------------------------------------------
// AST utilities
// ---------------------------------------------------------------------------

// WalkExpr calls fn on e and every sub-expression, pre-order. Subqueries are
// not descended into; callers that need them should inspect the node types.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *NotExpr:
		WalkExpr(x.Inner, fn)
	case *IsNullExpr:
		WalkExpr(x.Inner, fn)
	case *BetweenExpr:
		WalkExpr(x.Subject, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *AggregateExpr:
		if x.Arg != nil {
			WalkExpr(x.Arg, fn)
		}
	case *InExpr:
		WalkExpr(x.Subject, fn)
		for _, it := range x.List {
			WalkExpr(it, fn)
		}
	case *QuantifiedExpr:
		WalkExpr(x.Subject, fn)
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		if x.Else != nil {
			WalkExpr(x.Else, fn)
		}
	}
}

// Conjuncts flattens a WHERE/HAVING tree into its top-level AND-ed parts.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	return appendConjuncts(make([]Expr, 0, countConjuncts(e)), e)
}

func appendConjuncts(dst []Expr, e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return appendConjuncts(appendConjuncts(dst, b.Left), b.Right)
	}
	if e == nil {
		return dst
	}
	return append(dst, e)
}

func countConjuncts(e Expr) int {
	if e == nil {
		return 0
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return countConjuncts(b.Left) + countConjuncts(b.Right)
	}
	return 1
}

// AndAll rebuilds a conjunction from parts; nil for an empty slice.
func AndAll(parts []Expr) Expr {
	var out Expr
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = &BinaryExpr{Op: OpAnd, Left: out, Right: p}
		}
	}
	return out
}

// Subqueries returns every directly nested SelectStmt of e (not recursing
// into the subqueries themselves).
func Subqueries(e Expr) []*SelectStmt {
	var subs []*SelectStmt
	WalkExpr(e, func(x Expr) bool {
		switch s := x.(type) {
		case *InExpr:
			if s.Subquery != nil {
				subs = append(subs, s.Subquery)
			}
		case *ExistsExpr:
			subs = append(subs, s.Subquery)
		case *QuantifiedExpr:
			subs = append(subs, s.Subquery)
		case *SubqueryExpr:
			subs = append(subs, s.Subquery)
		}
		return true
	})
	return subs
}

// Grouped reports whether the SELECT evaluates through grouping: an explicit
// GROUP BY, a HAVING clause, or an aggregate in the select list. The engine
// (pipeline choice) and the planner (aggregate shape step) share this
// definition so plans always describe what actually executes.
func (s *SelectStmt) Grouped() bool {
	if len(s.GroupBy) > 0 || s.Having != nil {
		return true
	}
	for _, it := range s.Items {
		if HasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// HasAggregate reports whether the expression contains an aggregate call
// outside any subquery.
func HasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if _, ok := x.(*AggregateExpr); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// ColumnRefs collects every column reference in the expression, excluding
// those inside subqueries.
func ColumnRefs(e Expr) []*ColumnRef {
	var refs []*ColumnRef
	WalkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			refs = append(refs, c)
		}
		return true
	})
	return refs
}

// CloneExpr deep-copies an expression tree. Subqueries are cloned too.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColumnRef:
		c := *x
		return &c
	case *Literal:
		l := *x
		return &l
	case *Star:
		return &Star{}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: CloneExpr(x.Left), Right: CloneExpr(x.Right)}
	case *NotExpr:
		return &NotExpr{Inner: CloneExpr(x.Inner)}
	case *IsNullExpr:
		return &IsNullExpr{Inner: CloneExpr(x.Inner), Negate: x.Negate}
	case *BetweenExpr:
		return &BetweenExpr{Subject: CloneExpr(x.Subject), Lo: CloneExpr(x.Lo), Hi: CloneExpr(x.Hi), Negate: x.Negate}
	case *AggregateExpr:
		var arg Expr
		if x.Arg != nil {
			arg = CloneExpr(x.Arg)
		}
		return &AggregateExpr{Func: x.Func, Arg: arg, Distinct: x.Distinct}
	case *InExpr:
		out := &InExpr{Subject: CloneExpr(x.Subject), Negate: x.Negate}
		if x.Subquery != nil {
			out.Subquery = CloneSelect(x.Subquery)
		}
		for _, it := range x.List {
			out.List = append(out.List, CloneExpr(it))
		}
		return out
	case *ExistsExpr:
		return &ExistsExpr{Negate: x.Negate, Subquery: CloneSelect(x.Subquery)}
	case *QuantifiedExpr:
		return &QuantifiedExpr{Subject: CloneExpr(x.Subject), Op: x.Op, All: x.All, Subquery: CloneSelect(x.Subquery)}
	case *SubqueryExpr:
		return &SubqueryExpr{Subquery: CloneSelect(x.Subquery)}
	case *CaseExpr:
		out := &CaseExpr{}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, CaseWhen{Cond: CloneExpr(w.Cond), Then: CloneExpr(w.Then)})
		}
		if x.Else != nil {
			out.Else = CloneExpr(x.Else)
		}
		return out
	default:
		panic(fmt.Sprintf("sqlparser: CloneExpr: unknown node %T", e))
	}
}

// CloneSelect deep-copies a SELECT statement.
func CloneSelect(s *SelectStmt) *SelectStmt {
	if s == nil {
		return nil
	}
	out := &SelectStmt{Distinct: s.Distinct, Limit: s.Limit}
	for _, it := range s.Items {
		out.Items = append(out.Items, SelectItem{Expr: CloneExpr(it.Expr), Alias: it.Alias})
	}
	for _, t := range s.From {
		out.From = append(out.From, cloneTableRef(t))
	}
	out.Where = CloneExpr(s.Where)
	for _, g := range s.GroupBy {
		out.GroupBy = append(out.GroupBy, CloneExpr(g))
	}
	out.Having = CloneExpr(s.Having)
	for _, o := range s.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc})
	}
	return out
}

func cloneTableRef(t *TableRef) *TableRef {
	if t == nil {
		return nil
	}
	out := &TableRef{Relation: t.Relation, Alias: t.Alias}
	if t.Join != nil {
		out.Join = &JoinClause{Kind: t.Join.Kind, Right: cloneTableRef(t.Join.Right), On: CloneExpr(t.Join.On)}
	}
	return out
}
