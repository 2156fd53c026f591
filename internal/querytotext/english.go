package querytotext

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/lexicon"
	"repro/internal/querygraph"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

// opEnglish renders a comparison operator as prose.
func opEnglish(op sqlparser.BinaryOp) string {
	switch op {
	case sqlparser.OpEq:
		return "is"
	case sqlparser.OpNe:
		return "is not"
	case sqlparser.OpLt:
		return "is less than"
	case sqlparser.OpLe:
		return "is at most"
	case sqlparser.OpGt:
		return "is greater than"
	case sqlparser.OpGe:
		return "is at least"
	case sqlparser.OpLike:
		return "matches"
	default:
		return op.String()
	}
}

// valueEnglish renders a literal for prose.
func valueEnglish(v value.Value) string {
	if v.Kind() == value.Text {
		return "'" + v.Text() + "'"
	}
	return v.Prose()
}

// refEnglish renders a column reference as "the <gloss> of the <concept>",
// resolving the relation through the query graph when possible.
func (t *Translator) refEnglish(c *sqlparser.ColumnRef, g *querygraph.Graph) string {
	rel := t.relationOfRef(c, g)
	gloss := lexicon.Humanize(c.Column)
	if rel != nil {
		if strings.EqualFold(relHeading(rel), c.Column) {
			return "the " + rel.Concept() + "'s " + gloss
		}
		return "the " + gloss + " of the " + rel.Concept()
	}
	return "the " + gloss
}

func relHeading(rel *catalog.Relation) string {
	if h := rel.Heading(); h != nil {
		return h.Name
	}
	return ""
}

func (t *Translator) relationOfRef(c *sqlparser.ColumnRef, g *querygraph.Graph) *catalog.Relation {
	if g == nil {
		return nil
	}
	for _, b := range g.Boxes {
		if strings.EqualFold(b.Alias, c.Table) || (c.Table == "" && t.schema.Relation(b.Relation) != nil &&
			t.schema.Relation(b.Relation).AttrIndex(c.Column) >= 0) {
			return t.schema.Relation(b.Relation)
		}
	}
	return nil
}

// PredicateEnglish renders a boolean expression as prose, used by the
// procedural fallback, DML translation, and the explain subsystem.
func (t *Translator) PredicateEnglish(e sqlparser.Expr, g *querygraph.Graph) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd:
			return t.PredicateEnglish(x.Left, g) + " and " + t.PredicateEnglish(x.Right, g)
		case sqlparser.OpOr:
			return "either " + t.PredicateEnglish(x.Left, g) + " or " + t.PredicateEnglish(x.Right, g)
		}
		return t.operandEnglish(x.Left, g) + " " + opEnglish(x.Op) + " " + t.operandEnglish(x.Right, g)
	case *sqlparser.NotExpr:
		return "it is not the case that " + t.PredicateEnglish(x.Inner, g)
	case *sqlparser.IsNullExpr:
		if x.Negate {
			return t.operandEnglish(x.Inner, g) + " is known"
		}
		return t.operandEnglish(x.Inner, g) + " is unknown"
	case *sqlparser.BetweenExpr:
		not := ""
		if x.Negate {
			not = "not "
		}
		return t.operandEnglish(x.Subject, g) + " is " + not + "between " +
			t.operandEnglish(x.Lo, g) + " and " + t.operandEnglish(x.Hi, g)
	case *sqlparser.InExpr:
		not := ""
		if x.Negate {
			not = "not "
		}
		if x.Subquery != nil {
			return t.operandEnglish(x.Subject, g) + " is " + not + "among the results of a nested query"
		}
		var opts []string
		for _, it := range x.List {
			opts = append(opts, t.operandEnglish(it, g))
		}
		return t.operandEnglish(x.Subject, g) + " is " + not + "one of " + lexicon.JoinOr(opts)
	case *sqlparser.ExistsExpr:
		inner := "a matching row exists in a nested query"
		if len(x.Subquery.From) > 0 {
			rel := t.schema.Relation(x.Subquery.From[0].Relation)
			if rel != nil {
				inner = fmt.Sprintf("there is %s satisfying the nested condition", lexicon.WithArticle(rel.Concept()))
			}
		}
		if x.Negate {
			return "there is no case where " + inner
		}
		return inner
	case *sqlparser.QuantifiedExpr:
		q := "some"
		if x.All {
			q = "every"
		}
		return t.operandEnglish(x.Subject, g) + " " + opEnglish(x.Op) + " " + q + " value of the nested query"
	default:
		return e.SQL()
	}
}

func (t *Translator) operandEnglish(e sqlparser.Expr, g *querygraph.Graph) string {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		return t.refEnglish(x, g)
	case *sqlparser.Literal:
		return valueEnglish(x.Value)
	case *sqlparser.AggregateExpr:
		if x.Arg == nil {
			return "the number of rows"
		}
		switch x.Func {
		case sqlparser.AggCount:
			d := ""
			if x.Distinct {
				d = "distinct "
			}
			return "the number of " + d + "values of " + t.operandEnglish(x.Arg, g)
		case sqlparser.AggSum:
			return "the total of " + t.operandEnglish(x.Arg, g)
		case sqlparser.AggAvg:
			return "the average of " + t.operandEnglish(x.Arg, g)
		case sqlparser.AggMin:
			return "the smallest " + t.operandEnglish(x.Arg, g)
		case sqlparser.AggMax:
			return "the largest " + t.operandEnglish(x.Arg, g)
		}
	case *sqlparser.SubqueryExpr:
		return "the result of a nested query"
	case *sqlparser.BinaryExpr:
		// Parenthesized like BinaryExpr.SQL: a left operand that binds more
		// loosely, a right one that binds no more tightly — (1 - 2) * 3,
		// 1 - (2 - 3), and 2 * (3 / 2), which integer division sets apart
		// from 2 * 3 / 2.
		p := sqlparser.Precedence(x)
		return t.arithOperand(x.Left, g, p) + " " + x.Op.String() + " " + t.arithOperand(x.Right, g, p+1)
	}
	return e.SQL()
}

// arithOperand renders an operand of arithmetic, in parentheses when it binds
// more loosely than prec.
func (t *Translator) arithOperand(e sqlparser.Expr, g *querygraph.Graph, prec int) string {
	if sqlparser.Precedence(e) < prec {
		return "(" + t.operandEnglish(e, g) + ")"
	}
	return t.operandEnglish(e, g)
}

// ---------------------------------------------------------------------------
// DML and view translation (§3.1: "the same can be said about all other
// commands a user may give to a database system")
// ---------------------------------------------------------------------------

// TranslateStatement translates any supported statement. SELECTs route to
// Translate; DML and views produce imperative narratives.
func (t *Translator) TranslateStatement(stmt sqlparser.Statement) (*Translation, error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		return t.Translate(s)
	case *sqlparser.InsertStmt:
		return t.translateInsert(s)
	case *sqlparser.UpdateStmt:
		return t.translateUpdate(s)
	case *sqlparser.DeleteStmt:
		return t.translateDelete(s)
	case *sqlparser.CreateViewStmt:
		inner, err := t.Translate(s.Query)
		if err != nil {
			return nil, err
		}
		inner.Text = fmt.Sprintf("Define %q as a view over the following question: %s",
			s.Name, inner.Text)
		inner.Notes = append(inner.Notes, "view definition translated through its defining query")
		return inner, nil
	case *sqlparser.CreateTableStmt:
		return t.translateCreateTable(s)
	case *sqlparser.ExplainStmt:
		inner, err := t.Translate(s.Query)
		if err != nil {
			return nil, err
		}
		inner.Text = "Explain how the system answers the following question: " + inner.Text
		inner.Notes = append(inner.Notes, "plan explanation requested")
		return inner, nil
	default:
		return nil, fmt.Errorf("querytotext: unsupported statement %T", stmt)
	}
}

func (t *Translator) translateInsert(s *sqlparser.InsertStmt) (*Translation, error) {
	rel := t.schema.Relation(s.Relation)
	concept := strings.ToLower(s.Relation)
	if rel != nil {
		concept = rel.Concept()
	}
	if s.Query != nil {
		inner, err := t.Translate(s.Query)
		if err != nil {
			return nil, err
		}
		return &Translation{
			Text: fmt.Sprintf("Add to %s every result of the following question: %s",
				lexicon.Pluralize(concept), inner.Text),
		}, nil
	}
	var rows []string
	for _, row := range s.Rows {
		var fields []string
		for i, e := range row {
			name := ""
			if i < len(s.Columns) {
				name = lexicon.Humanize(s.Columns[i])
			} else if rel != nil && i < len(rel.Attributes) {
				name = lexicon.Humanize(rel.Attributes[i].Name)
			}
			if lit, ok := e.(*sqlparser.Literal); ok {
				fields = append(fields, fmt.Sprintf("%s %s", name, valueEnglish(lit.Value)))
			} else {
				fields = append(fields, fmt.Sprintf("%s %s", name, e.SQL()))
			}
		}
		rows = append(rows, "with "+lexicon.JoinAnd(fields))
	}
	text := fmt.Sprintf("Insert %s %s.", lexicon.CountNoun(len(s.Rows), "new "+concept), strings.Join(rows, "; "))
	return &Translation{Text: lexicon.Sentence(text)}, nil
}

func (t *Translator) translateUpdate(s *sqlparser.UpdateStmt) (*Translation, error) {
	rel := t.schema.Relation(s.Relation)
	concept := strings.ToLower(s.Relation)
	if rel != nil {
		concept = rel.Concept()
	}
	var sets []string
	for _, a := range s.Set {
		sets = append(sets, fmt.Sprintf("set the %s to %s",
			lexicon.Humanize(a.Column), t.operandEnglish(a.Value, nil)))
	}
	text := fmt.Sprintf("For every %s", concept)
	if s.Where != nil {
		text += " where " + t.PredicateEnglish(s.Where, nil)
	}
	text += ", " + lexicon.JoinAnd(sets)
	return &Translation{Text: lexicon.Sentence(text)}, nil
}

func (t *Translator) translateDelete(s *sqlparser.DeleteStmt) (*Translation, error) {
	rel := t.schema.Relation(s.Relation)
	concept := strings.ToLower(s.Relation)
	if rel != nil {
		concept = rel.Concept()
	}
	if s.Where == nil {
		return &Translation{Text: lexicon.Sentence(fmt.Sprintf("Delete all %s", lexicon.Pluralize(concept)))}, nil
	}
	return &Translation{Text: lexicon.Sentence(fmt.Sprintf("Delete the %s where %s",
		lexicon.Pluralize(concept), t.PredicateEnglish(s.Where, nil)))}, nil
}

func (t *Translator) translateCreateTable(s *sqlparser.CreateTableStmt) (*Translation, error) {
	concept := strings.ToLower(lexicon.Singularize(s.Name))
	var cols []string
	for _, c := range s.Columns {
		cols = append(cols, lexicon.Humanize(c.Name))
	}
	text := fmt.Sprintf("Create a new collection of %s records, each carrying %s",
		concept, lexicon.JoinAnd(cols))
	if len(s.PrimaryKey) > 0 {
		keys := make([]string, len(s.PrimaryKey))
		for i, k := range s.PrimaryKey {
			keys[i] = lexicon.Humanize(k)
		}
		text += fmt.Sprintf("; each record is identified by its %s", lexicon.JoinAnd(keys))
	}
	return &Translation{Text: lexicon.Sentence(text)}, nil
}
