// Package engine executes parsed SQL against the in-memory storage layer.
// It is the DBMS substrate of the reproduction: the translation pipeline
// explains queries and narrates their answers, and this engine is what
// produces those answers. It supports select-project-join with arbitrary
// tuple variables, correlated subqueries (IN / EXISTS / scalar / ALL / ANY),
// grouping with aggregates and HAVING (including scalar subqueries), ORDER
// BY, DISTINCT, LIMIT, LEFT/RIGHT joins, views, and DML.
package engine

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// binding associates one tuple variable with its relation and current tuple.
type binding struct {
	alias string
	rel   *catalog.Relation
	tuple storage.Tuple
}

// env is a chain of binding scopes; inner subqueries see outer bindings for
// correlation.
type env struct {
	parent   *env
	bindings []binding
}

// lookup resolves a column reference to its current value.
func (e *env) lookup(ref *sqlparser.ColumnRef) (value.Value, error) {
	for scope := e; scope != nil; scope = scope.parent {
		if ref.Table != "" {
			for i := range scope.bindings {
				b := &scope.bindings[i]
				if strings.EqualFold(b.alias, ref.Table) || strings.EqualFold(b.rel.Name, ref.Table) {
					pos := b.rel.AttrIndex(ref.Column)
					if pos < 0 {
						return value.Value{}, fmt.Errorf("engine: relation %s has no attribute %q", b.rel.Name, ref.Column)
					}
					return b.tuple[pos], nil
				}
			}
			continue
		}
		// Unqualified: must be unambiguous within the scope.
		found := -1
		var out value.Value
		for i := range scope.bindings {
			b := &scope.bindings[i]
			pos := b.rel.AttrIndex(ref.Column)
			if pos >= 0 {
				if found >= 0 {
					return value.Value{}, fmt.Errorf("engine: ambiguous column %q", ref.Column)
				}
				found = i
				out = b.tuple[pos]
			}
		}
		if found >= 0 {
			return out, nil
		}
	}
	return value.Value{}, fmt.Errorf("engine: unknown column %s", ref.SQL())
}

// groupCtx carries the rows of the current group during aggregate
// evaluation. When nil, aggregate expressions are illegal.
type groupCtx struct {
	rows []*env
}

// evalExpr evaluates an expression under env; gc is non-nil only inside
// grouped evaluation (HAVING and grouped SELECT items).
func (ex *Engine) evalExpr(e sqlparser.Expr, en *env, gc *groupCtx) (value.Value, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Value, nil

	case *sqlparser.ColumnRef:
		if x.Column == "*" {
			return value.Value{}, fmt.Errorf("engine: %s is not a scalar expression", x.SQL())
		}
		if gc != nil {
			// Inside a grouped context a bare column is evaluated on the
			// group's representative row (valid when it is functionally
			// dependent on the GROUP BY columns, which the planner checks).
			if len(gc.rows) == 0 {
				return value.NewNull(), nil
			}
			return gc.rows[0].lookup(x)
		}
		return en.lookup(x)

	case *sqlparser.BinaryExpr:
		return ex.evalBinary(x, en, gc)

	case *sqlparser.NotExpr:
		v, err := ex.evalExpr(x.Inner, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			return v, nil
		}
		if v.Kind() != value.Bool {
			return value.Value{}, fmt.Errorf("engine: NOT applied to %s", v.Kind())
		}
		return value.NewBool(!v.Bool()), nil

	case *sqlparser.IsNullExpr:
		v, err := ex.evalExpr(x.Inner, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(v.IsNull() != x.Negate), nil

	case *sqlparser.BetweenExpr:
		subj, err := ex.evalExpr(x.Subject, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		lo, err := ex.evalExpr(x.Lo, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		hi, err := ex.evalExpr(x.Hi, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		if subj.IsNull() || lo.IsNull() || hi.IsNull() {
			return value.NewNull(), nil
		}
		c1, err := subj.Compare(lo)
		if err != nil {
			return value.Value{}, err
		}
		c2, err := subj.Compare(hi)
		if err != nil {
			return value.Value{}, err
		}
		in := c1 >= 0 && c2 <= 0
		return value.NewBool(in != x.Negate), nil

	case *sqlparser.AggregateExpr:
		if gc == nil {
			return value.Value{}, fmt.Errorf("engine: aggregate %s outside grouped context", x.SQL())
		}
		return ex.evalAggregate(x, gc)

	case *sqlparser.InExpr:
		return ex.evalIn(x, en, gc)

	case *sqlparser.ExistsExpr:
		rows, err := ex.execSelectRows(x.Subquery, en, 1)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool((len(rows) > 0) != x.Negate), nil

	case *sqlparser.QuantifiedExpr:
		return ex.evalQuantified(x, en, gc)

	case *sqlparser.SubqueryExpr:
		return ex.evalScalarSubquery(x.Subquery, en)

	case *sqlparser.CaseExpr:
		for _, w := range x.Whens {
			cond, err := ex.evalExpr(w.Cond, en, gc)
			if err != nil {
				return value.Value{}, err
			}
			if !cond.IsNull() && cond.Kind() == value.Bool && cond.Bool() {
				return ex.evalExpr(w.Then, en, gc)
			}
		}
		if x.Else != nil {
			return ex.evalExpr(x.Else, en, gc)
		}
		return value.NewNull(), nil

	case *sqlparser.Star:
		return value.Value{}, fmt.Errorf("engine: * is not a scalar expression")

	default:
		return value.Value{}, fmt.Errorf("engine: cannot evaluate %T", e)
	}
}

func (ex *Engine) evalBinary(x *sqlparser.BinaryExpr, en *env, gc *groupCtx) (value.Value, error) {
	switch x.Op {
	case sqlparser.OpAnd, sqlparser.OpOr:
		l, err := ex.evalExpr(x.Left, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		// Three-valued short circuit.
		if !l.IsNull() && l.Kind() == value.Bool {
			if x.Op == sqlparser.OpAnd && !l.Bool() {
				return value.NewBool(false), nil
			}
			if x.Op == sqlparser.OpOr && l.Bool() {
				return value.NewBool(true), nil
			}
		}
		r, err := ex.evalExpr(x.Right, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		return threeValued(x.Op, l, r)
	}

	l, err := ex.evalExpr(x.Left, en, gc)
	if err != nil {
		return value.Value{}, err
	}
	r, err := ex.evalExpr(x.Right, en, gc)
	if err != nil {
		return value.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return value.NewNull(), nil
	}

	switch x.Op {
	case sqlparser.OpEq:
		return compareOp(l, r, true, func(c int) bool { return c == 0 })
	case sqlparser.OpNe:
		return compareOp(l, r, true, func(c int) bool { return c != 0 })
	case sqlparser.OpLt:
		return compareOp(l, r, false, func(c int) bool { return c < 0 })
	case sqlparser.OpLe:
		return compareOp(l, r, false, func(c int) bool { return c <= 0 })
	case sqlparser.OpGt:
		return compareOp(l, r, false, func(c int) bool { return c > 0 })
	case sqlparser.OpGe:
		return compareOp(l, r, false, func(c int) bool { return c >= 0 })
	case sqlparser.OpLike:
		if l.Kind() != value.Text || r.Kind() != value.Text {
			return value.Value{}, fmt.Errorf("engine: LIKE requires text operands")
		}
		return value.NewBool(likeMatch(l.Text(), r.Text())), nil
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod:
		return arith(x.Op, l, r)
	default:
		return value.Value{}, fmt.Errorf("engine: unsupported operator %s", x.Op)
	}
}

func compareOp(l, r value.Value, equality bool, pred func(int) bool) (value.Value, error) {
	// Equality across mismatched non-numeric kinds is false, not an error;
	// ordering across them is an error.
	c, err := l.Compare(r)
	if err != nil {
		if equality && l.Kind() != r.Kind() && !(l.IsNumeric() && r.IsNumeric()) {
			return value.NewBool(pred(boolToCmp(l.Equal(r)))), nil
		}
		return value.Value{}, err
	}
	return value.NewBool(pred(c)), nil
}

// boolToCmp maps an equality result onto a comparison outcome: equal ⇒ 0,
// not equal ⇒ 1 (any non-zero works for = / != predicates).
func boolToCmp(eq bool) int {
	if eq {
		return 0
	}
	return 1
}

func threeValued(op sqlparser.BinaryOp, l, r value.Value) (value.Value, error) {
	toB := func(v value.Value) (bool, bool, error) { // (val, known, err)
		if v.IsNull() {
			return false, false, nil
		}
		if v.Kind() != value.Bool {
			return false, false, fmt.Errorf("engine: boolean operator on %s", v.Kind())
		}
		return v.Bool(), true, nil
	}
	lb, lk, err := toB(l)
	if err != nil {
		return value.Value{}, err
	}
	rb, rk, err := toB(r)
	if err != nil {
		return value.Value{}, err
	}
	if op == sqlparser.OpAnd {
		switch {
		case lk && !lb, rk && !rb:
			return value.NewBool(false), nil
		case lk && rk:
			return value.NewBool(lb && rb), nil
		default:
			return value.NewNull(), nil
		}
	}
	switch {
	case lk && lb, rk && rb:
		return value.NewBool(true), nil
	case lk && rk:
		return value.NewBool(lb || rb), nil
	default:
		return value.NewNull(), nil
	}
}

func arith(op sqlparser.BinaryOp, l, r value.Value) (value.Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return value.Value{}, fmt.Errorf("engine: arithmetic on %s and %s", l.Kind(), r.Kind())
	}
	if l.Kind() == value.Int && r.Kind() == value.Int {
		a, b := l.Int(), r.Int()
		switch op {
		case sqlparser.OpAdd:
			return value.NewInt(a + b), nil
		case sqlparser.OpSub:
			return value.NewInt(a - b), nil
		case sqlparser.OpMul:
			return value.NewInt(a * b), nil
		case sqlparser.OpDiv:
			if b == 0 {
				return value.Value{}, fmt.Errorf("engine: division by zero")
			}
			return value.NewInt(a / b), nil
		case sqlparser.OpMod:
			if b == 0 {
				return value.Value{}, fmt.Errorf("engine: modulo by zero")
			}
			return value.NewInt(a % b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case sqlparser.OpAdd:
		return value.NewFloat(a + b), nil
	case sqlparser.OpSub:
		return value.NewFloat(a - b), nil
	case sqlparser.OpMul:
		return value.NewFloat(a * b), nil
	case sqlparser.OpDiv:
		if b == 0 {
			return value.Value{}, fmt.Errorf("engine: division by zero")
		}
		return value.NewFloat(a / b), nil
	case sqlparser.OpMod:
		return value.Value{}, fmt.Errorf("engine: modulo on floats")
	}
	return value.Value{}, fmt.Errorf("engine: bad arithmetic operator")
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune).
func likeMatch(s, pattern string) bool {
	return likeRec([]rune(s), []rune(pattern))
}

func likeRec(s, p []rune) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func (ex *Engine) evalIn(x *sqlparser.InExpr, en *env, gc *groupCtx) (value.Value, error) {
	subj, err := ex.evalExpr(x.Subject, en, gc)
	if err != nil {
		return value.Value{}, err
	}
	if x.Subquery != nil {
		rows, err := ex.execSelectRows(x.Subquery, en, -1)
		if err != nil {
			return value.Value{}, err
		}
		return inRows(subj, rows, x.Negate)
	}
	var in inTest
	for _, item := range x.List {
		v, err := ex.evalExpr(item, en, gc)
		if err != nil {
			return value.Value{}, err
		}
		in.add(subj, v)
	}
	return in.result(subj, x.Negate), nil
}

// inTest accumulates SQL's three-valued IN over candidates seen one at a
// time. Every candidate is evaluated before the outcome is known, so an error
// in any of them surfaces even after a match.
type inTest struct {
	n              int
	found, sawNull bool
}

func (t *inTest) add(subj, c value.Value) {
	t.n++
	switch {
	case c.IsNull():
		t.sawNull = true
	case !t.found && !subj.IsNull():
		t.found = subj.Equal(c)
	}
}

func (t *inTest) result(subj value.Value, negate bool) value.Value {
	switch {
	case subj.IsNull() && t.n == 0:
		return value.NewBool(negate)
	case subj.IsNull():
		return value.NewNull()
	case t.found:
		return value.NewBool(!negate)
	case t.sawNull:
		return value.NewNull()
	}
	return value.NewBool(negate)
}

// inRows is subj IN over a subquery's rows, which must have one column each.
func inRows(subj value.Value, rows []storage.Tuple, negate bool) (value.Value, error) {
	var in inTest
	for _, row := range rows {
		if len(row) != 1 {
			return value.Value{}, fmt.Errorf("engine: IN subquery must produce one column, got %d", len(row))
		}
		in.add(subj, row[0])
	}
	return in.result(subj, negate), nil
}

func (ex *Engine) evalQuantified(x *sqlparser.QuantifiedExpr, en *env, gc *groupCtx) (value.Value, error) {
	subj, err := ex.evalExpr(x.Subject, en, gc)
	if err != nil {
		return value.Value{}, err
	}
	rows, err := ex.execSelectRows(x.Subquery, en, -1)
	if err != nil {
		return value.Value{}, err
	}
	return quantify(x, subj, rows)
}

// quantify compares subj against a subquery's rows under x's ALL or ANY.
func quantify(x *sqlparser.QuantifiedExpr, subj value.Value, rows []storage.Tuple) (value.Value, error) {
	if x.All && len(rows) == 0 {
		return value.NewBool(true), nil
	}
	if !x.All && len(rows) == 0 {
		return value.NewBool(false), nil
	}
	if subj.IsNull() {
		return value.NewNull(), nil
	}
	sawNull := false
	anyTrue := false
	allTrue := true
	for _, row := range rows {
		if len(row) != 1 {
			return value.Value{}, fmt.Errorf("engine: quantified subquery must produce one column")
		}
		v := row[0]
		if v.IsNull() {
			sawNull = true
			allTrue = false
			continue
		}
		c, err := subj.Compare(v)
		if err != nil {
			return value.Value{}, err
		}
		ok := false
		switch x.Op {
		case sqlparser.OpEq:
			ok = c == 0
		case sqlparser.OpNe:
			ok = c != 0
		case sqlparser.OpLt:
			ok = c < 0
		case sqlparser.OpLe:
			ok = c <= 0
		case sqlparser.OpGt:
			ok = c > 0
		case sqlparser.OpGe:
			ok = c >= 0
		default:
			return value.Value{}, fmt.Errorf("engine: quantifier with non-comparison operator %s", x.Op)
		}
		if ok {
			anyTrue = true
		} else {
			allTrue = false
		}
	}
	if x.All {
		if allTrue {
			return value.NewBool(true), nil
		}
		// A definite counterexample makes ALL false even with NULLs present,
		// but here allTrue=false could be due to a NULL row; distinguish:
		if sawNull && !definiteCounterexample(subj, rows, x.Op) {
			return value.NewNull(), nil
		}
		return value.NewBool(false), nil
	}
	if anyTrue {
		return value.NewBool(true), nil
	}
	if sawNull {
		return value.NewNull(), nil
	}
	return value.NewBool(false), nil
}

func definiteCounterexample(subj value.Value, rows []storage.Tuple, op sqlparser.BinaryOp) bool {
	for _, row := range rows {
		v := row[0]
		if v.IsNull() {
			continue
		}
		c, err := subj.Compare(v)
		if err != nil {
			continue
		}
		ok := false
		switch op {
		case sqlparser.OpEq:
			ok = c == 0
		case sqlparser.OpNe:
			ok = c != 0
		case sqlparser.OpLt:
			ok = c < 0
		case sqlparser.OpLe:
			ok = c <= 0
		case sqlparser.OpGt:
			ok = c > 0
		case sqlparser.OpGe:
			ok = c >= 0
		}
		if !ok {
			return true
		}
	}
	return false
}

func (ex *Engine) evalScalarSubquery(sub *sqlparser.SelectStmt, en *env) (value.Value, error) {
	rows, err := ex.execSelectRows(sub, en, 2)
	if err != nil {
		return value.Value{}, err
	}
	switch len(rows) {
	case 0:
		return value.NewNull(), nil
	case 1:
		if len(rows[0]) != 1 {
			return value.Value{}, fmt.Errorf("engine: scalar subquery must produce one column, got %d", len(rows[0]))
		}
		return rows[0][0], nil
	default:
		return value.Value{}, fmt.Errorf("engine: scalar subquery produced more than one row")
	}
}

func (ex *Engine) evalAggregate(x *sqlparser.AggregateExpr, gc *groupCtx) (value.Value, error) {
	// COUNT(*) counts rows.
	if x.Arg == nil {
		return value.NewInt(int64(len(gc.rows))), nil
	}
	var vals []value.Value
	seen := map[string]bool{}
	for _, rowEnv := range gc.rows {
		v, err := ex.evalExpr(x.Arg, rowEnv, nil)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if x.Distinct {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch x.Func {
	case sqlparser.AggCount:
		return value.NewInt(int64(len(vals))), nil
	case sqlparser.AggSum, sqlparser.AggAvg:
		if len(vals) == 0 {
			return value.NewNull(), nil
		}
		allInt := true
		sumF := 0.0
		sumI := int64(0)
		for _, v := range vals {
			if !v.IsNumeric() {
				return value.Value{}, fmt.Errorf("engine: %s over non-numeric values", x.Func)
			}
			if v.Kind() == value.Int {
				sumI += v.Int()
			} else {
				allInt = false
			}
			sumF += v.Float()
		}
		if x.Func == sqlparser.AggSum {
			if allInt {
				return value.NewInt(sumI), nil
			}
			return value.NewFloat(sumF), nil
		}
		return value.NewFloat(sumF / float64(len(vals))), nil
	case sqlparser.AggMin, sqlparser.AggMax:
		if len(vals) == 0 {
			return value.NewNull(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := v.Compare(best)
			if err != nil {
				return value.Value{}, err
			}
			if (x.Func == sqlparser.AggMin && c < 0) || (x.Func == sqlparser.AggMax && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return value.Value{}, fmt.Errorf("engine: unknown aggregate")
	}
}
