// Package engine executes parsed SQL against the in-memory storage layer.
// It is the DBMS substrate of the reproduction: the translation pipeline
// explains queries and narrates their answers, and this engine is what
// produces those answers. It supports select-project-join with arbitrary
// tuple variables, correlated subqueries (IN / EXISTS / scalar / ALL / ANY),
// grouping with aggregates and HAVING (including scalar subqueries), ORDER
// BY, DISTINCT, LIMIT, LEFT/RIGHT joins, views, and DML.
//
// Every statement runs a plan whose expressions compile to closures over
// flat slot-addressed rows (plan_exec.go); a subquery's references to an
// enclosing query compile to that query's row. This file holds the value
// semantics those closures share with the test oracle: comparison,
// three-valued logic, arithmetic, LIKE, and the IN, quantified and scalar
// subquery outcomes.
package engine

import (
	"fmt"

	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

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

// quantify compares subj against a subquery's rows under x's ALL or ANY.
func quantify(x *sqlparser.QuantifiedExpr, subj value.Value, rows []storage.Tuple) (value.Value, error) {
	if len(rows) == 0 {
		return value.NewBool(x.All), nil
	}
	if subj.IsNull() {
		return value.NewNull(), nil
	}
	var sawTrue, sawFalse, sawNull bool
	for _, row := range rows {
		if len(row) != 1 {
			return value.Value{}, fmt.Errorf("engine: quantified subquery must produce one column")
		}
		v := row[0]
		if v.IsNull() {
			sawNull = true
			continue
		}
		c, err := subj.Compare(v)
		if err != nil {
			return value.Value{}, err
		}
		var ok bool
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
		sawTrue, sawFalse = sawTrue || ok, sawFalse || !ok
	}
	// A counterexample decides ALL (false) and a witness decides ANY (true);
	// short of one, a NULL row leaves the outcome unknown.
	switch {
	case x.All && sawFalse, !x.All && sawTrue:
		return value.NewBool(!x.All), nil
	case sawNull:
		return value.NewNull(), nil
	}
	return value.NewBool(x.All), nil
}

// scalarOf is a scalar subquery's value from its rows, fetched with a bound
// of two: NULL for none, the one column of one row, an error otherwise.
func scalarOf(rows []storage.Tuple) (value.Value, error) {
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
