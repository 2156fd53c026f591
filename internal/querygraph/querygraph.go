// Package querygraph builds the paper's graph-based query representation
// (§3.2, Fig. 2): every relation instance (tuple variable) of a SELECT
// statement becomes a parameterized class with <<FROM>>, <<SELECT>>,
// <<WHERE>> and <<HAVING>> compartments plus <<GROUP BY>> / <<ORDER BY>>
// notes; predicates connecting two tuple variables become join edges
// (marked as foreign-key joins when they follow a declared FK); and nested
// subqueries become attached blocks (the paper's NQ1 in Fig. 7) linked by
// their connector (IN, EXISTS, quantified or scalar comparison).
package querygraph

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
)

// Box is one parameterized class: a tuple variable with its compartments.
// The compartments hold the statement's own nodes; render.go writes their
// text.
type Box struct {
	// Alias is the tuple variable (the paper's relation_alias); equals the
	// relation name when the query declares no alias.
	Alias string
	// Relation is the relation name (the <<FROM>> compartment).
	Relation string
	// Select lists this box's output items, rendered in the paper's
	// "alias.relation.attribute: alias" form when they name its column.
	Select []sqlparser.SelectItem
	// Where lists unary constraints — conjuncts referencing only this
	// tuple variable.
	Where []sqlparser.Expr
	// Having lists this box's HAVING conjuncts.
	Having []sqlparser.Expr
	// GroupBy and OrderBy are the attached notes.
	GroupBy []sqlparser.Expr
	OrderBy []sqlparser.OrderItem
}

// JoinEdge connects two tuple variables through a predicate.
type JoinEdge struct {
	From, To string // aliases
	// Cond is the conjunct comparing a column of each, e.g. m.id = c.mid.
	Cond *sqlparser.BinaryExpr
	// FK reports whether the predicate follows a declared foreign key —
	// the distinction between Q1/Q2-style graphs and the non-FK joins of
	// Q3/Q4 that the paper calls out.
	FK bool
	// Equi reports whether the predicate is an equality between two
	// columns.
	Equi bool
}

// Connector labels how a nested block attaches to its parent.
type Connector int

// Connector kinds.
const (
	ConnIn Connector = iota
	ConnNotIn
	ConnExists
	ConnNotExists
	ConnAll
	ConnAny
	ConnScalar
)

// String renders the connector.
func (c Connector) String() string {
	switch c {
	case ConnIn:
		return "IN"
	case ConnNotIn:
		return "NOT IN"
	case ConnExists:
		return "EXISTS"
	case ConnNotExists:
		return "NOT EXISTS"
	case ConnAll:
		return "ALL"
	case ConnAny:
		return "ANY"
	default:
		return "scalar"
	}
}

// Nested is a subquery block attached to the parent graph.
type Nested struct {
	// Label names the block (NQ1, NQ2, ... in document order).
	Label string
	// Graph is the subquery's own query graph.
	Graph *Graph
	// Conn is the attachment connector.
	Conn Connector
	// Link is the conjunct that attaches the block: an IN, EXISTS or
	// quantified predicate over the subquery, or a comparison with it.
	// LinkText renders it with the subquery replaced by Label, e.g.
	// "m.id IN NQ1" or "1 < NQ1".
	Link sqlparser.Expr
	// Correlations lists conjuncts inside the subquery that reference
	// tuple variables of an enclosing block — the parent's or one further
	// out — e.g. g.mid = m.id.
	Correlations []sqlparser.Expr
	// FromHaving marks blocks attached under HAVING rather than WHERE.
	FromHaving bool
}

// Graph is the query graph of one SELECT block.
type Graph struct {
	// Stmt is the statement the graph was built from.
	Stmt *sqlparser.SelectStmt
	// Boxes holds one entry per tuple variable, in FROM order.
	Boxes []*Box
	// Joins holds the binary predicates connecting tuple variables.
	Joins []JoinEdge
	// Nested holds attached subquery blocks in discovery order.
	Nested []*Nested

	schema *catalog.Schema
	byName map[string]*Box
	outer  *Graph // the enclosing block's graph; nil at the top
}

// Build constructs the query graph of sel against schema. The schema may be
// nil; FK classification of join edges then degrades to non-FK.
func Build(sel *sqlparser.SelectStmt, schema *catalog.Schema) (*Graph, error) {
	return build(sel, schema, newLabeler(), nil)
}

type labeler struct{ n int }

func newLabeler() *labeler { return &labeler{} }

func (l *labeler) next() string {
	l.n++
	return fmt.Sprintf("NQ%d", l.n)
}

func build(sel *sqlparser.SelectStmt, schema *catalog.Schema, lab *labeler, outer *Graph) (*Graph, error) {
	g := &Graph{Stmt: sel, schema: schema, byName: make(map[string]*Box), outer: outer}

	// Boxes from FROM (flattening explicit join chains).
	var addRef func(t *sqlparser.TableRef) error
	addRef = func(t *sqlparser.TableRef) error {
		b := &Box{Alias: t.Name(), Relation: t.Relation}
		key := strings.ToLower(b.Alias)
		if _, dup := g.byName[key]; dup {
			return fmt.Errorf("querygraph: duplicate tuple variable %q", b.Alias)
		}
		g.byName[key] = b
		g.Boxes = append(g.Boxes, b)
		if t.Join != nil {
			if err := addRef(t.Join.Right); err != nil {
				return err
			}
		}
		return nil
	}
	for _, t := range sel.From {
		if err := addRef(t); err != nil {
			return nil, err
		}
	}

	// SELECT items.
	for _, it := range sel.Items {
		g.assignSelectItem(it)
	}

	// WHERE conjuncts, including explicit-join ON conditions.
	conjuncts := sqlparser.Conjuncts(sel.Where)
	for _, t := range sel.From {
		for j := t.Join; j != nil; j = j.Right.Join {
			if j.On != nil {
				conjuncts = append(conjuncts, sqlparser.Conjuncts(j.On)...)
			}
		}
	}
	for _, c := range conjuncts {
		if err := g.assignConjunct(c, lab, false); err != nil {
			return nil, err
		}
	}

	// GROUP BY notes.
	for _, gb := range sel.GroupBy {
		if box := g.boxOrFirst(gb); box != nil {
			box.GroupBy = append(box.GroupBy, gb)
		}
	}

	// HAVING conjuncts.
	for _, c := range sqlparser.Conjuncts(sel.Having) {
		if err := g.assignConjunct(c, lab, true); err != nil {
			return nil, err
		}
	}

	// ORDER BY notes.
	for _, ob := range sel.OrderBy {
		if box := g.boxOrFirst(ob.Expr); box != nil {
			box.OrderBy = append(box.OrderBy, ob)
		}
	}

	return g, nil
}

// boxOrFirst returns the one box an expression's columns name, else the
// first box; nil when the query has no FROM entry.
func (g *Graph) boxOrFirst(e sqlparser.Expr) *Box {
	if box := g.boxOf(e); box != nil {
		return box
	}
	if len(g.Boxes) > 0 {
		return g.Boxes[0]
	}
	return nil
}

// assignSelectItem files a select item into the box of its tuple variable;
// itemless expressions (count(*), literals) go to the last box, matching
// Fig. 7's placement of count(*) in the CAST class.
func (g *Graph) assignSelectItem(it sqlparser.SelectItem) {
	box := g.boxOf(it.Expr)
	if box == nil && len(g.Boxes) > 0 {
		box = g.Boxes[len(g.Boxes)-1]
	}
	if box != nil {
		box.Select = append(box.Select, it)
	}
}

// box resolves an alias (or relation name) to its box.
func (g *Graph) box(name string) *Box {
	if name == "" {
		return nil
	}
	if b, ok := g.byName[strings.ToLower(name)]; ok {
		return b
	}
	// Allow referring to a box by relation name when unique.
	var found *Box
	for _, b := range g.Boxes {
		if strings.EqualFold(b.Relation, name) {
			if found != nil {
				return nil
			}
			found = b
		}
	}
	return found
}

// boxOf returns the single box an expression's column references resolve to,
// or nil when the expression spans several (or none).
func (g *Graph) boxOf(e sqlparser.Expr) *Box {
	var only *Box
	multiple := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if c, ok := x.(*sqlparser.ColumnRef); ok {
			b := g.box(c.Table)
			if b == nil && c.Table == "" {
				b = g.boxByColumn(c.Column)
			}
			if b == nil {
				multiple = true
				return false
			}
			if only != nil && only != b {
				multiple = true
				return false
			}
			only = b
		}
		return true
	})
	if multiple {
		return nil
	}
	return only
}

// boxByColumn finds the unique box whose relation has the column.
func (g *Graph) boxByColumn(col string) *Box {
	if g.schema == nil {
		return nil
	}
	var found *Box
	for _, b := range g.Boxes {
		rel := g.schema.Relation(b.Relation)
		if rel != nil && rel.AttrIndex(col) >= 0 {
			if found != nil {
				return nil
			}
			found = b
		}
	}
	return found
}

// assignConjunct files one WHERE/HAVING conjunct: join edge, unary
// constraint, or nested block.
func (g *Graph) assignConjunct(c sqlparser.Expr, lab *labeler, having bool) error {
	// Nested subqueries first.
	switch x := c.(type) {
	case *sqlparser.InExpr:
		if x.Subquery != nil {
			conn := ConnIn
			if x.Negate {
				conn = ConnNotIn
			}
			return g.attachNested(x.Subquery, conn, c, lab, having)
		}
	case *sqlparser.ExistsExpr:
		conn := ConnExists
		if x.Negate {
			conn = ConnNotExists
		}
		return g.attachNested(x.Subquery, conn, c, lab, having)
	case *sqlparser.QuantifiedExpr:
		conn := ConnAny
		if x.All {
			conn = ConnAll
		}
		return g.attachNested(x.Subquery, conn, c, lab, having)
	case *sqlparser.BinaryExpr:
		if sub, _ := scalarSubquery(x); sub != nil {
			return g.attachNested(sub, ConnScalar, c, lab, having)
		}
	}

	// Join edge: a comparison between columns of two distinct boxes.
	if b, ok := c.(*sqlparser.BinaryExpr); ok && b.Op.IsComparison() {
		l, lok := b.Left.(*sqlparser.ColumnRef)
		r, rok := b.Right.(*sqlparser.ColumnRef)
		if lok && rok {
			lb := g.resolveBoxForRef(l)
			rb := g.resolveBoxForRef(r)
			if lb != nil && rb != nil && lb != rb {
				g.Joins = append(g.Joins, JoinEdge{
					From: lb.Alias, To: rb.Alias,
					Cond: b,
					FK:   b.Op == sqlparser.OpEq && g.isFKJoin(lb, l.Column, rb, r.Column),
					Equi: b.Op == sqlparser.OpEq,
				})
				return nil
			}
		}
	}

	// Unary constraint: all refs inside a single box; the rest (e.g.
	// literal-only predicates) attach to the first box.
	box := g.boxOrFirst(c)
	switch {
	case box == nil:
		return fmt.Errorf("querygraph: cannot place predicate %q", c.SQL())
	case having:
		box.Having = append(box.Having, c)
	default:
		box.Where = append(box.Where, c)
	}
	return nil
}

func (g *Graph) resolveBoxForRef(c *sqlparser.ColumnRef) *Box {
	if b := g.box(c.Table); b != nil {
		return b
	}
	if c.Table == "" {
		return g.boxByColumn(c.Column)
	}
	return nil
}

// scalarSubquery returns the subquery a comparison attaches as a nested
// block — its right operand's, else its left's — and whether it is the left.
func scalarSubquery(b *sqlparser.BinaryExpr) (sub *sqlparser.SelectStmt, left bool) {
	if !b.Op.IsComparison() {
		return nil, false
	}
	if s, ok := b.Right.(*sqlparser.SubqueryExpr); ok {
		return s.Subquery, false
	}
	if s, ok := b.Left.(*sqlparser.SubqueryExpr); ok {
		return s.Subquery, true
	}
	return nil, false
}

// isFKJoin reports whether lb.lcol = rb.rcol follows a declared foreign key
// in either direction.
func (g *Graph) isFKJoin(lb *Box, lcol string, rb *Box, rcol string) bool {
	if g.schema == nil {
		return false
	}
	lRel := g.schema.Relation(lb.Relation)
	rRel := g.schema.Relation(rb.Relation)
	if lRel == nil || rRel == nil {
		return false
	}
	covers := func(from *catalog.Relation, fcol string, to *catalog.Relation, tcol string) bool {
		for _, fk := range from.ForeignKey {
			if !strings.EqualFold(fk.RefRelation, to.Name) {
				continue
			}
			for i := range fk.Attrs {
				if strings.EqualFold(fk.Attrs[i], fcol) && strings.EqualFold(fk.RefAttrs[i], tcol) {
					return true
				}
			}
		}
		return false
	}
	return covers(lRel, lcol, rRel, rcol) || covers(rRel, rcol, lRel, lcol)
}

func (g *Graph) attachNested(sub *sqlparser.SelectStmt, conn Connector, link sqlparser.Expr, lab *labeler, having bool) error {
	label := lab.next()
	inner, err := build(sub, g.schema, lab, g)
	if err != nil {
		return err
	}
	g.Nested = append(g.Nested, &Nested{
		Label: label, Graph: inner, Conn: conn, Link: link, FromHaving: having,
		Correlations: correlations(inner),
	})
	return nil
}

// correlations finds conjuncts of the inner graph that reference a tuple
// variable of an enclosing block (an alias the inner query does not declare
// and some block around it does), listing a conjunct the subquery repeats
// once.
func correlations(inner *Graph) []sqlparser.Expr {
	var out []sqlparser.Expr
	collect := func(e sqlparser.Expr) {
		refsOuter := false
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if c, ok := x.(*sqlparser.ColumnRef); ok && c.Table != "" && inner.box(c.Table) == nil {
				for g := inner.outer; g != nil && !refsOuter; g = g.outer {
					refsOuter = g.box(c.Table) != nil
				}
			}
			return true
		})
		if !refsOuter {
			return
		}
		for _, seen := range out {
			if reflect.DeepEqual(seen, e) {
				return
			}
		}
		out = append(out, e)
	}
	for _, c := range sqlparser.Conjuncts(inner.Stmt.Where) {
		collect(c)
	}
	for _, c := range sqlparser.Conjuncts(inner.Stmt.Having) {
		collect(c)
	}
	return out
}

// ---------------------------------------------------------------------------
// Structure queries
// ---------------------------------------------------------------------------

// MultiInstanceRelations returns relations appearing as more than one tuple
// variable (Q3's two CAST and two ACTOR instances).
func (g *Graph) MultiInstanceRelations() []string {
	count := map[string]int{}
	for _, b := range g.Boxes {
		count[strings.ToUpper(b.Relation)]++
	}
	var out []string
	for rel, n := range count {
		if n > 1 {
			out = append(out, rel)
		}
	}
	sort.Strings(out)
	return out
}

// HasCycle reports whether the undirected multigraph of join edges contains
// a cycle (including the two-edge cycle of Q4, where two distinct
// predicates connect the same pair of tuple variables).
func (g *Graph) HasCycle() bool {
	adj := map[string][]int{}
	for i, j := range g.Joins {
		adj[strings.ToLower(j.From)] = append(adj[strings.ToLower(j.From)], i)
		adj[strings.ToLower(j.To)] = append(adj[strings.ToLower(j.To)], i)
	}
	visited := map[string]bool{}
	var dfs func(node string, viaEdge int) bool
	dfs = func(node string, viaEdge int) bool {
		visited[node] = true
		for _, ei := range adj[node] {
			if ei == viaEdge {
				continue
			}
			e := g.Joins[ei]
			next := strings.ToLower(e.To)
			if next == node {
				next = strings.ToLower(e.From)
			}
			if next == node {
				return true // self loop
			}
			if visited[next] {
				return true
			}
			if dfs(next, ei) {
				return true
			}
		}
		return false
	}
	for _, b := range g.Boxes {
		key := strings.ToLower(b.Alias)
		if !visited[key] {
			if dfs(key, -1) {
				return true
			}
		}
	}
	return false
}

// IsPath reports whether the join edges form a simple path over all boxes:
// connected, acyclic, max degree 2 (the paper's path queries, §3.3.1).
func (g *Graph) IsPath() bool {
	if len(g.Boxes) <= 1 {
		return true
	}
	if len(g.Joins) != len(g.Boxes)-1 || g.HasCycle() {
		return false
	}
	deg := map[string]int{}
	for _, j := range g.Joins {
		deg[strings.ToLower(j.From)]++
		deg[strings.ToLower(j.To)]++
	}
	for _, b := range g.Boxes {
		if deg[strings.ToLower(b.Alias)] > 2 {
			return false
		}
	}
	return g.connected()
}

// IsConnectedAcyclic reports whether the join graph is a tree spanning all
// boxes (the paper's subgraph queries, §3.3.2).
func (g *Graph) IsConnectedAcyclic() bool {
	if len(g.Boxes) <= 1 {
		return true
	}
	return len(g.Joins) == len(g.Boxes)-1 && !g.HasCycle() && g.connected()
}

func (g *Graph) connected() bool {
	if len(g.Boxes) == 0 {
		return true
	}
	adj := map[string][]string{}
	for _, j := range g.Joins {
		f, t := strings.ToLower(j.From), strings.ToLower(j.To)
		adj[f] = append(adj[f], t)
		adj[t] = append(adj[t], f)
	}
	visited := map[string]bool{}
	stack := []string{strings.ToLower(g.Boxes[0].Alias)}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[n] {
			continue
		}
		visited[n] = true
		stack = append(stack, adj[n]...)
	}
	return len(visited) == len(g.Boxes)
}

// AllJoinsFK reports whether every join edge follows a foreign key.
func (g *Graph) AllJoinsFK() bool {
	for _, j := range g.Joins {
		if !j.FK {
			return false
		}
	}
	return true
}

// HasGrouping reports whether the query (not its subqueries) groups or
// aggregates.
func (g *Graph) HasGrouping() bool {
	if len(g.Stmt.GroupBy) > 0 || g.Stmt.Having != nil {
		return true
	}
	for _, it := range g.Stmt.Items {
		if sqlparser.HasAggregate(it.Expr) {
			return true
		}
	}
	return false
}
