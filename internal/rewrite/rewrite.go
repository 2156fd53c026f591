// Package rewrite implements the query-equivalence transformations and
// higher-order idiom detectors that the paper motivates "by translatability
// principles" (§3.3.4–3.3.5):
//
//   - IN-subquery unnesting turns Q5 into its flat equivalent Q1, after
//     which the ordinary graph translation applies ("it is straightforward
//     to obtain from the flat form of the query").
//   - Double-NOT-EXISTS detection recognizes relational division (Q6,
//     "movies that have ALL genres").
//   - count(distinct X) = 1 recognizes the same-value idiom (Q8, "all in
//     the same year").
//   - <= ALL / >= ALL recognize the extreme idiom (Q9, "earliest" /
//     "latest"), including the repeated-entity refinement of Q9's
//     self-join subquery.
//   - Self-join idioms over the query graph: key-inequality pairing (Q3,
//     "pairs of actors in the same movie") and non-key comparison through a
//     role path (the intro's "employees who make more than their
//     managers").
package rewrite

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/querygraph"
	"repro/internal/sqlparser"
)

// ---------------------------------------------------------------------------
// IN-subquery unnesting (Q5 → Q1)
// ---------------------------------------------------------------------------

// UnnestResult reports an unnesting outcome.
type UnnestResult struct {
	// Stmt is the rewritten statement (a deep copy; the input is not
	// modified).
	Stmt *sqlparser.SelectStmt
	// Unnested counts how many IN-subqueries were flattened.
	Unnested int
	// Renamed maps original inner aliases to their collision-free names.
	Renamed map[string]string
}

// UnnestIn flattens non-negated, non-aggregating IN-subqueries into joins,
// recursively, and returns the flat statement. Subqueries with grouping,
// DISTINCT, HAVING, multiple output columns, or set-modifying semantics are
// left in place.
func UnnestIn(sel *sqlparser.SelectStmt) UnnestResult {
	out := UnnestResult{Stmt: sqlparser.CloneSelect(sel), Renamed: map[string]string{}}
	for {
		if !unnestOnce(&out) {
			return out
		}
	}
}

func unnestOnce(res *UnnestResult) bool {
	sel := res.Stmt
	conjuncts := sqlparser.Conjuncts(sel.Where)
	for i, c := range conjuncts {
		in, ok := c.(*sqlparser.InExpr)
		if !ok || in.Subquery == nil || in.Negate {
			continue
		}
		sub := in.Subquery
		if !flattenable(sub) {
			continue
		}
		// Rename inner aliases that collide with outer ones.
		taken := map[string]bool{}
		for _, t := range sel.From {
			taken[strings.ToLower(t.Name())] = true
		}
		renames := map[string]string{}
		for _, t := range sub.From {
			name := t.Name()
			if taken[strings.ToLower(name)] {
				fresh := freshAlias(name, taken)
				renames[strings.ToLower(name)] = fresh
				if t.Alias != "" {
					t.Alias = fresh
				} else {
					t.Alias = fresh
				}
				res.Renamed[name] = fresh
				taken[strings.ToLower(fresh)] = true
			} else {
				taken[strings.ToLower(name)] = true
			}
		}
		if len(renames) > 0 {
			renameRefs(sub.Where, renames)
			for j := range sub.Items {
				renameRefs(sub.Items[j].Expr, renames)
			}
		}
		// Build the join predicate: subject = subquery output.
		outCol := sub.Items[0].Expr
		join := &sqlparser.BinaryExpr{Op: sqlparser.OpEq, Left: in.Subject, Right: outCol}
		// Splice: replace conjunct i with join + sub.Where.
		newConj := append([]sqlparser.Expr{}, conjuncts[:i]...)
		newConj = append(newConj, join)
		if sub.Where != nil {
			newConj = append(newConj, sqlparser.Conjuncts(sub.Where)...)
		}
		newConj = append(newConj, conjuncts[i+1:]...)
		sel.Where = sqlparser.AndAll(newConj)
		sel.From = append(sel.From, sub.From...)
		res.Unnested++
		return true
	}
	return false
}

// flattenable reports whether an IN-subquery can merge into its parent.
func flattenable(sub *sqlparser.SelectStmt) bool {
	if len(sub.Items) != 1 || sub.Distinct || len(sub.GroupBy) > 0 ||
		sub.Having != nil || len(sub.OrderBy) > 0 || sub.Limit >= 0 {
		return false
	}
	if _, ok := sub.Items[0].Expr.(*sqlparser.ColumnRef); !ok {
		return false
	}
	if sqlparser.HasAggregate(sub.Items[0].Expr) {
		return false
	}
	// Nested EXISTS/quantified inside the subquery's WHERE stay put; IN is
	// fine (it unnests on a later pass).
	blocked := false
	sqlparser.WalkExpr(sub.Where, func(x sqlparser.Expr) bool {
		switch x.(type) {
		case *sqlparser.ExistsExpr, *sqlparser.QuantifiedExpr, *sqlparser.SubqueryExpr:
			blocked = true
			return false
		case *sqlparser.NotExpr:
			blocked = true
			return false
		}
		return true
	})
	return !blocked
}

func freshAlias(base string, taken map[string]bool) string {
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s%d", base, i)
		if !taken[strings.ToLower(cand)] {
			return cand
		}
	}
}

func renameRefs(e sqlparser.Expr, renames map[string]string) {
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if c, ok := x.(*sqlparser.ColumnRef); ok {
			if to, ok := renames[strings.ToLower(c.Table)]; ok {
				c.Table = to
			}
		}
		// Also descend into IN-subqueries, which WalkExpr skips.
		if in, ok := x.(*sqlparser.InExpr); ok && in.Subquery != nil {
			renameRefs(in.Subquery.Where, renames)
			for i := range in.Subquery.Items {
				renameRefs(in.Subquery.Items[i].Expr, renames)
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Relational division (Q6)
// ---------------------------------------------------------------------------

// Division describes a detected double-NOT-EXISTS division.
type Division struct {
	// OuterAlias / OuterRelation anchor the result ("movies ...").
	OuterAlias, OuterRelation string
	// DivisorAlias / DivisorRelation is the universally quantified set
	// ("... ALL genres").
	DivisorAlias, DivisorRelation string
	// SharedAttr is the attribute equated between divisor and witness
	// ("genre").
	SharedAttr string
	// LinkCond is the witness's correlation to the outer tuple
	// ("g2.mid = m.id").
	LinkCond string
}

// DetectDivision recognizes the pattern
//
//	NOT EXISTS (SELECT * FROM D d1 WHERE NOT EXISTS (
//	    SELECT * FROM D d2 WHERE d2.link = outer.key AND d2.a = d1.a))
//
// and returns its description.
func DetectDivision(sel *sqlparser.SelectStmt) (*Division, bool) {
	if len(sel.From) == 0 {
		return nil, false
	}
	outerRef := sel.From[0]
	for _, c := range sqlparser.Conjuncts(sel.Where) {
		ex1, ok := c.(*sqlparser.ExistsExpr)
		if !ok || !ex1.Negate {
			continue
		}
		mid := ex1.Subquery
		if len(mid.From) != 1 {
			continue
		}
		divisor := mid.From[0]
		for _, c2 := range sqlparser.Conjuncts(mid.Where) {
			ex2, ok := c2.(*sqlparser.ExistsExpr)
			if !ok || !ex2.Negate {
				continue
			}
			inner := ex2.Subquery
			if len(inner.From) != 1 {
				continue
			}
			witness := inner.From[0]
			if !strings.EqualFold(witness.Relation, divisor.Relation) {
				continue
			}
			var linkCond, sharedAttr string
			for _, c3 := range sqlparser.Conjuncts(inner.Where) {
				b, ok := c3.(*sqlparser.BinaryExpr)
				if !ok || b.Op != sqlparser.OpEq {
					continue
				}
				l, lok := b.Left.(*sqlparser.ColumnRef)
				r, rok := b.Right.(*sqlparser.ColumnRef)
				if !lok || !rok {
					continue
				}
				sides := map[string]*sqlparser.ColumnRef{
					strings.ToLower(l.Table): l,
					strings.ToLower(r.Table): r,
				}
				w := strings.ToLower(witness.Name())
				o := strings.ToLower(outerRef.Name())
				d := strings.ToLower(divisor.Name())
				if sides[w] != nil && sides[o] != nil {
					linkCond = c3.SQL()
				}
				if sides[w] != nil && sides[d] != nil {
					sharedAttr = sides[d].Column
				}
			}
			if linkCond != "" && sharedAttr != "" {
				return &Division{
					OuterAlias:      outerRef.Name(),
					OuterRelation:   outerRef.Relation,
					DivisorAlias:    divisor.Name(),
					DivisorRelation: divisor.Relation,
					SharedAttr:      sharedAttr,
					LinkCond:        linkCond,
				}, true
			}
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Same-value idiom (Q8)
// ---------------------------------------------------------------------------

// SameValue describes HAVING COUNT(DISTINCT x) = 1.
type SameValue struct {
	// Attr is the attribute all rows of a group share ("m.year").
	Attr *sqlparser.ColumnRef
	// GroupBy lists the grouping expressions (SQL text).
	GroupBy []string
}

// DetectSameValue recognizes the Q8 idiom.
func DetectSameValue(sel *sqlparser.SelectStmt) (*SameValue, bool) {
	for _, c := range sqlparser.Conjuncts(sel.Having) {
		b, ok := c.(*sqlparser.BinaryExpr)
		if !ok || b.Op != sqlparser.OpEq {
			continue
		}
		var agg *sqlparser.AggregateExpr
		var lit *sqlparser.Literal
		if a, ok := b.Left.(*sqlparser.AggregateExpr); ok {
			agg = a
			lit, _ = b.Right.(*sqlparser.Literal)
		} else if a, ok := b.Right.(*sqlparser.AggregateExpr); ok {
			agg = a
			lit, _ = b.Left.(*sqlparser.Literal)
		}
		if agg == nil || lit == nil || agg.Func != sqlparser.AggCount || !agg.Distinct {
			continue
		}
		if lit.Value.String() != "1" {
			continue
		}
		col, ok := agg.Arg.(*sqlparser.ColumnRef)
		if !ok {
			continue
		}
		var gb []string
		for _, g := range sel.GroupBy {
			gb = append(gb, g.SQL())
		}
		return &SameValue{Attr: col, GroupBy: gb}, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Extreme idiom (Q9)
// ---------------------------------------------------------------------------

// Extreme describes subject <op> ALL (subquery).
type Extreme struct {
	// Attr is the compared attribute ("m.year").
	Attr *sqlparser.ColumnRef
	// Min is true for <= / < ALL ("earliest"); false for >= / > ("latest").
	Min bool
	// RepeatedOn is non-empty when the subquery restricts to entities that
	// appear more than once, equated on this attribute (Q9's m1.title =
	// m.title, m2.title = m.title, m1.id != m2.id self-join): the paper's
	// "versions of movies that have been repeated".
	RepeatedOn string
}

// DetectExtreme recognizes the Q9 idiom anywhere in WHERE.
func DetectExtreme(sel *sqlparser.SelectStmt) (*Extreme, bool) {
	var found *Extreme
	sqlparser.WalkExpr(sel.Where, func(x sqlparser.Expr) bool {
		q, ok := x.(*sqlparser.QuantifiedExpr)
		if !ok || !q.All {
			return true
		}
		col, ok := q.Subject.(*sqlparser.ColumnRef)
		if !ok {
			return true
		}
		e := &Extreme{Attr: col}
		switch q.Op {
		case sqlparser.OpLe, sqlparser.OpLt:
			e.Min = true
		case sqlparser.OpGe, sqlparser.OpGt:
			e.Min = false
		default:
			return true
		}
		e.RepeatedOn = repeatedOnAttr(q.Subquery)
		found = e
		return false
	})
	return found, found != nil
}

// repeatedOnAttr inspects a subquery for the two-instance "repeated entity"
// self-join: two tuple variables of one relation, each equated to the outer
// query on attribute A, with an inequality on another attribute.
func repeatedOnAttr(sub *sqlparser.SelectStmt) string {
	if len(sub.From) != 2 || !strings.EqualFold(sub.From[0].Relation, sub.From[1].Relation) {
		return ""
	}
	a1 := strings.ToLower(sub.From[0].Name())
	a2 := strings.ToLower(sub.From[1].Name())
	equalsOuter := map[string]string{} // alias -> attr equated to an outer ref
	inequality := false
	for _, c := range sqlparser.Conjuncts(sub.Where) {
		b, ok := c.(*sqlparser.BinaryExpr)
		if !ok {
			continue
		}
		l, lok := b.Left.(*sqlparser.ColumnRef)
		r, rok := b.Right.(*sqlparser.ColumnRef)
		if !lok || !rok {
			continue
		}
		lt, rt := strings.ToLower(l.Table), strings.ToLower(r.Table)
		switch b.Op {
		case sqlparser.OpEq:
			// inner = outer (outer table is neither a1 nor a2)
			if (lt == a1 || lt == a2) && rt != a1 && rt != a2 {
				equalsOuter[lt] = l.Column
			}
			if (rt == a1 || rt == a2) && lt != a1 && lt != a2 {
				equalsOuter[rt] = r.Column
			}
		case sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpGt:
			if (lt == a1 && rt == a2) || (lt == a2 && rt == a1) {
				inequality = true
			}
		}
	}
	if inequality && equalsOuter[a1] != "" && strings.EqualFold(equalsOuter[a1], equalsOuter[a2]) {
		return equalsOuter[a1]
	}
	return ""
}

// ---------------------------------------------------------------------------
// Self-join idioms over the query graph (Q3, Q0)
// ---------------------------------------------------------------------------

// Pairs describes the key-inequality pairing idiom: two instances of one
// relation, connected to a shared relation, with an inequality on the
// relation's key used purely to enumerate unordered pairs (Q3).
type Pairs struct {
	// Relation is the paired relation ("ACTOR").
	Relation string
	// Aliases are the two tuple variables ("a1", "a2").
	Aliases [2]string
	// Shared is the relation both instances connect to ("MOVIES").
	Shared string
}

// DetectPairs recognizes the Q3 idiom on a query graph.
func DetectPairs(g *querygraph.Graph, schema *catalog.Schema) (*Pairs, bool) {
	inst := instancesByRelation(g)
	for relName, aliases := range inst {
		if len(aliases) != 2 {
			continue
		}
		rel := schema.Relation(relName)
		if rel == nil {
			continue
		}
		// An inequality edge between the two aliases on a key attribute.
		keyIneq := false
		for _, j := range g.Joins {
			if !sameAliasPair(j, aliases[0], aliases[1]) || j.FK || j.Equi {
				continue
			}
			if condOnKey(j.Cond, rel) {
				keyIneq = true
			}
		}
		if !keyIneq {
			continue
		}
		// Both aliases reach a common relation through FK edges.
		shared := commonNeighbor(g, aliases[0], aliases[1])
		if shared == "" {
			continue
		}
		return &Pairs{Relation: rel.Name, Aliases: [2]string{aliases[0], aliases[1]}, Shared: shared}, true
	}
	return nil, false
}

// Comparative describes the non-key self-join comparison idiom: "employees
// who make more than their managers".
type Comparative struct {
	// Relation is the compared relation ("EMP").
	Relation string
	// Aliases are (subject, object): subject's Attr exceeds object's.
	Aliases [2]string
	// Attr is the compared attribute ("sal").
	Attr string
	// Greater is true for > / >=.
	Greater bool
	// RoleAttr is the attribute linking the object instance into the path
	// ("mgr"), whose gloss names the role ("manager"). Empty when the link
	// is not attribute-named.
	RoleAttr string
	// RoleRelation is the relation declaring RoleAttr ("DEPT").
	RoleRelation string
}

// DetectComparative recognizes the Q0 idiom on a query graph.
func DetectComparative(g *querygraph.Graph, schema *catalog.Schema) (*Comparative, bool) {
	inst := instancesByRelation(g)
	for relName, aliases := range inst {
		if len(aliases) != 2 {
			continue
		}
		rel := schema.Relation(relName)
		if rel == nil {
			continue
		}
		for _, j := range g.Joins {
			if !sameAliasPair(j, aliases[0], aliases[1]) || j.Equi || j.FK {
				continue
			}
			attr, subject, greater := comparison(j.Cond, rel)
			if attr == "" || rel.IsPrimaryKey([]string{attr}) {
				continue
			}
			object := aliases[0]
			if strings.EqualFold(subject, aliases[0]) {
				object = aliases[1]
			}
			roleAttr, roleRel := findRoleAttr(g, schema, object)
			return &Comparative{
				Relation: rel.Name,
				Aliases:  [2]string{subject, object},
				Attr:     attr,
				Greater:  greater,
				RoleAttr: roleAttr, RoleRelation: roleRel,
			}, true
		}
	}
	return nil, false
}

func instancesByRelation(g *querygraph.Graph) map[string][]string {
	out := map[string][]string{}
	for _, b := range g.Boxes {
		key := strings.ToUpper(b.Relation)
		out[key] = append(out[key], b.Alias)
	}
	return out
}

func sameAliasPair(j querygraph.JoinEdge, a, b string) bool {
	return (strings.EqualFold(j.From, a) && strings.EqualFold(j.To, b)) ||
		(strings.EqualFold(j.From, b) && strings.EqualFold(j.To, a))
}

// condOnKey reports whether a condition like a1.id > a2.id compares the
// relation's single-attribute primary key with itself.
func condOnKey(cond *sqlparser.BinaryExpr, rel *catalog.Relation) bool {
	if len(rel.PrimaryKey) != 1 {
		return false
	}
	l, r, ok := qualifiedPair(cond)
	return ok && strings.EqualFold(l.Column, rel.PrimaryKey[0]) && strings.EqualFold(r.Column, rel.PrimaryKey[0])
}

// comparison reads an order or inequality comparison of one attribute of
// rel across two tuple variables, like e1.sal > e2.sal. subject is the
// greater side's alias, and greater is false for != (subject is then the
// left side).
func comparison(cond *sqlparser.BinaryExpr, rel *catalog.Relation) (attr, subject string, greater bool) {
	l, r, ok := qualifiedPair(cond)
	if !ok || !strings.EqualFold(l.Column, r.Column) || rel.AttrIndex(l.Column) < 0 {
		return "", "", false
	}
	switch cond.Op {
	case sqlparser.OpGt, sqlparser.OpGe:
		return l.Column, l.Table, true
	case sqlparser.OpLt, sqlparser.OpLe:
		return l.Column, r.Table, true
	case sqlparser.OpNe:
		return l.Column, l.Table, false
	}
	return "", "", false
}

// qualifiedPair returns the two column references a join edge compares
// when both name their tuple variable.
func qualifiedPair(cond *sqlparser.BinaryExpr) (l, r *sqlparser.ColumnRef, ok bool) {
	l, lok := cond.Left.(*sqlparser.ColumnRef)
	r, rok := cond.Right.(*sqlparser.ColumnRef)
	if !lok || !rok || l.Table == "" || r.Table == "" {
		return nil, nil, false
	}
	return l, r, true
}

// commonNeighbor finds a relation reachable from both aliases via FK equi
// edges (directly or through a bridge of degree 2, like CAST).
func commonNeighbor(g *querygraph.Graph, a, b string) string {
	reach := func(start string) map[string]bool {
		out := map[string]bool{}
		// One or two FK hops.
		for _, j1 := range g.Joins {
			if !j1.FK {
				continue
			}
			var next string
			switch {
			case strings.EqualFold(j1.From, start):
				next = j1.To
			case strings.EqualFold(j1.To, start):
				next = j1.From
			default:
				continue
			}
			out[strings.ToLower(next)] = true
			for _, j2 := range g.Joins {
				if !j2.FK {
					continue
				}
				switch {
				case strings.EqualFold(j2.From, next) && !strings.EqualFold(j2.To, start):
					out[strings.ToLower(j2.To)] = true
				case strings.EqualFold(j2.To, next) && !strings.EqualFold(j2.From, start):
					out[strings.ToLower(j2.From)] = true
				}
			}
		}
		return out
	}
	ra, rb := reach(a), reach(b)
	for alias := range ra {
		if rb[alias] && !strings.EqualFold(alias, a) && !strings.EqualFold(alias, b) {
			for _, box := range g.Boxes {
				if strings.EqualFold(box.Alias, alias) {
					return box.Relation
				}
			}
		}
	}
	return ""
}

// findRoleAttr locates the attribute through which the object alias is
// referenced: an FK equi-edge "x.role = object.key" names the role ("d.mgr
// = e2.eid" names "mgr" declared by DEPT).
func findRoleAttr(g *querygraph.Graph, schema *catalog.Schema, object string) (attr, rel string) {
	for _, j := range g.Joins {
		if !j.Equi {
			continue
		}
		var otherAlias, otherSide string
		switch {
		case strings.EqualFold(j.From, object):
			otherAlias = j.To
		case strings.EqualFold(j.To, object):
			otherAlias = j.From
		default:
			continue
		}
		// Of x.a = y.b, pick the side not belonging to object.
		l, r, ok := qualifiedPair(j.Cond)
		if !ok {
			continue
		}
		if strings.EqualFold(l.Table, object) {
			otherSide = r.Column
		} else if strings.EqualFold(r.Table, object) {
			otherSide = l.Column
		} else {
			continue
		}
		// The role attribute lives on the other relation.
		for _, box := range g.Boxes {
			if strings.EqualFold(box.Alias, otherAlias) {
				other := schema.Relation(box.Relation)
				if other != nil && other.AttrIndex(otherSide) >= 0 && !other.IsPrimaryKey([]string{otherSide}) {
					return otherSide, other.Name
				}
			}
		}
	}
	return "", ""
}
