// Package planner chooses how SELECT statements execute: it classifies WHERE
// conjuncts, estimates selectivities and join cardinalities from the storage
// statistics (Table.Stats), orders inner joins greedily by
// estimated output size, and picks an access path per step — full scan,
// primary-key probe, hash join, primary-key join, or nested loop. The
// paper's §3.1 motivates feedback about *why* a
// query is expensive; the Plan produced here is both the engine's execution
// recipe and the artifact EXPLAIN PLAN narrates back to the user.
//
// The planner resolves every column reference to a (step, attribute) slot at
// plan time: the engine executes plans over flat slot-addressed rows, so the
// join inner loop does no map or string-key work. Every SELECT gets a plan.
// Outer joins keep FROM order, and a conjunct the planner cannot resolve — an
// ambiguous or unknown column, an ON condition reaching past its own join —
// is placed, unanalyzed, at the step where the engine's test interpreter
// evaluates it; the engine compiles it there, to the error its first row
// raises.
package planner

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Input is one FROM entry, in clause order, handed over by the engine. Join
// and On say how an explicit JOIN attaches it to the entries before it; they
// are JoinInner and nil for the first entry and a comma-separated one.
type Input struct {
	Alias string
	Rel   *catalog.Relation
	Tbl   *storage.Table
	Join  sqlparser.JoinKind
	On    sqlparser.Expr
}

// Access enumerates the access paths a step can use.
type Access int

// Access paths: the Scan* kinds produce the first row set, the Join* kinds
// extend every current row with matches from a new table.
const (
	ScanFull Access = iota
	ScanPK
	JoinHash
	JoinPK
	JoinLoop
)

// String names the access path the way explains render it.
func (a Access) String() string {
	switch a {
	case ScanFull:
		return "full scan"
	case ScanPK:
		return "primary-key probe"
	case JoinHash:
		return "hash join"
	case JoinPK:
		return "primary-key join"
	case JoinLoop:
		return "nested loop"
	default:
		return fmt.Sprintf("access(%d)", int(a))
	}
}

// Step is one stage of the execution pipeline.
type Step struct {
	Input Input
	// FromPos is the entry's position in the original FROM clause; slot
	// offsets are laid out in FROM order so they do not depend on join order.
	FromPos int
	// Offset is the absolute slot of this step's first attribute in the flat
	// row layout.
	Offset int
	Access Access
	// KeyValues are the literal probe values for ScanPK, aligned with the key
	// positions of the primary key.
	KeyValues []value.Value
	// BuildPos / ProbeSlot drive JoinHash: build a hash table over this
	// relation's attribute BuildPos, probe it with the current row's absolute
	// slot ProbeSlot.
	BuildPos  int
	ProbeSlot int
	// ProbeSlots drive JoinPK: absolute slots supplying the key values,
	// aligned with the primary key's positions.
	ProbeSlots []int
	// Join is JoinLeft or JoinRight for an outer join step. A LEFT step keeps
	// every row so far, padding this relation with NULLs for a row that kept
	// no match; a RIGHT step keeps every row of this relation, padding the
	// rows so far for one none of them matched. A plan with an outer step
	// keeps FROM order. Its SelfFilters filter a LEFT step's padded side
	// before the join; its PostJoinFilters are the join's match conditions.
	Join sqlparser.JoinKind
	// JoinDesc renders the consumed join equalities ("c.mid = m.id").
	JoinDesc string
	// SelfFilters are pushed-down conjuncts touching only this step's
	// relation; the engine may apply them before the join (hash build /
	// inner-loop prefilter). PostJoinFilters also reference earlier steps and
	// run once the joined candidate row exists; they include the conjuncts
	// the planner could not resolve, which the engine evaluates over the FROM
	// entries bound so far. Both keep WHERE-clause order.
	SelfFilters     []sqlparser.Expr
	PostJoinFilters []sqlparser.Expr
	// TableRows is the relation's cardinality at plan time.
	TableRows int
	// EstRows estimates the cumulative row count after this step; EstCost is
	// the step's own cost in scanned-tuple units.
	EstRows float64
	EstCost float64
	// ActualRows is filled in by the engine during execution (-1 before).
	ActualRows int
	// HashSide, HashedRows and ScannedRows record what a JoinHash step did
	// when it ran (zero before): the engine hashes whichever input is smaller
	// at run time — this relation's filtered rows (HashTable), or the rows so
	// far (HashOuter), after which it scans this relation's join column once
	// for their keys. HashedRows counts the rows put in the hash table,
	// ScannedRows the rows of this relation the build read.
	HashSide    string
	HashedRows  int
	ScannedRows int
	// Workers is how many workers a join step split the rows so far over
	// when it ran (zero before, 1 when it ran serially).
	Workers int

	// consumedConjs is planning scratch: the conjuncts this step's access
	// path folded in, flagged by markConsumed once the step wins.
	consumedConjs []*conjunct
}

// The sides a JoinHash step can hash (Step.HashSide).
const (
	HashTable = "table"
	HashOuter = "outer"
)

// ShapeKind enumerates the result-shaping steps that run after the join
// pipeline: grouping with aggregation, sorting, bounded top-K selection, and
// plain limiting.
type ShapeKind int

// Shaping step kinds. Build emits the first four; the last three say how the
// scan and the aggregation run and are added by the engine's compilers, the
// only code that knows what it will run (Build contributes the zone-skip
// cost gate, ZoneSkipStep). ShapeParallelScan and ShapeVecAggregate are the
// vectorized-aggregation pair: a vec-aggregate step replaces the generic
// aggregate when every group key and aggregate argument reads a typed column
// vector directly, so the engine accumulates into unboxed typed arrays
// instead of hashing boxed rows, and a parallel-scan step in front of it
// says the base scan ran split into K contiguous ranges, one per worker,
// whose partial aggregates merge in scan order. In a plan's shape they come
// in the order zone-skip, parallel-scan, [vec-]aggregate, sort or top-k,
// limit.
const (
	ShapeAggregate ShapeKind = iota
	ShapeSort
	ShapeTopK
	ShapeLimit
	ShapeVecAggregate
	ShapeParallelScan
	// ShapeZoneSkip marks the base scan as zone-map pruned: before touching a
	// morsel's column payloads, the engine probes the per-morsel min/max/null
	// summaries against the scan's filters and skips morsels the bounds prove
	// all-false. K is the morsel count; ActualRows records how many were
	// skipped.
	ShapeZoneSkip
)

// String names the shape kind the way explains render it.
func (k ShapeKind) String() string {
	switch k {
	case ShapeAggregate:
		return "aggregate"
	case ShapeSort:
		return "sort"
	case ShapeTopK:
		return "top-k"
	case ShapeLimit:
		return "limit"
	case ShapeVecAggregate:
		return "vec-aggregate"
	case ShapeParallelScan:
		return "parallel-scan"
	case ShapeZoneSkip:
		return "zone-skip"
	default:
		return fmt.Sprintf("shape(%d)", int(k))
	}
}

// ShapeStep is one post-join shaping stage. The engine compiles group keys,
// aggregate accumulators, and sort keys to slot readers over the flat rows;
// the planner records what the stage does and how many rows it should emit.
type ShapeStep struct {
	Kind ShapeKind
	// GroupBy / Aggregates / Having describe an aggregate step.
	GroupBy    []string
	Aggregates []string
	Having     string
	// Keys are the ORDER BY expressions (with direction) of a sort/top-k step.
	Keys []string
	// K is the row bound of a top-k or limit step.
	K int
	// EstRows estimates the step's output cardinality (group counts come from
	// per-attribute distinct statistics).
	EstRows float64
	// ActualRows is filled in by the engine during execution (-1 before).
	ActualRows int
}

// Plan is the chosen execution strategy for one SELECT.
type Plan struct {
	Steps []*Step
	// Post holds residual conjuncts evaluated after all joins: subquery
	// predicates, outer-scope correlations, and anything unresolvable at
	// plan time.
	Post []sqlparser.Expr
	// Shape lists the post-join shaping stages (aggregate, sort, top-k,
	// limit) in execution order; empty for plain select-project-join.
	Shape []*ShapeStep
	// Width is the total slot count of the flat row layout.
	Width   int
	EstRows float64
	EstCost float64
	// ActualRows is the final row count after Post filters (-1 before
	// execution).
	ActualRows int
}

// Fingerprint is a compact stable description of the plan shape, used by the
// serving layer to record which plan produced a cached response.
func (p *Plan) Fingerprint() string {
	var b strings.Builder
	for i, st := range p.Steps {
		if i > 0 {
			b.WriteByte('>')
		}
		b.WriteString(st.Input.Alias)
		b.WriteByte(':')
		if w := st.outerWord(); w != "" {
			b.WriteString(w + " ")
		}
		b.WriteString(st.Access.String())
		if len(st.SelfFilters)+len(st.PostJoinFilters) > 0 {
			fmt.Fprintf(&b, "{%d}", len(st.SelfFilters)+len(st.PostJoinFilters))
		}
	}
	if len(p.Post) > 0 {
		fmt.Fprintf(&b, ">post{%d}", len(p.Post))
	}
	for _, sh := range p.Shape {
		switch sh.Kind {
		case ShapeAggregate:
			fmt.Fprintf(&b, ">agg{%d,%d}", len(sh.GroupBy), len(sh.Aggregates))
			if sh.Having != "" {
				b.WriteString("+having")
			}
		case ShapeVecAggregate:
			fmt.Fprintf(&b, ">vagg{%d,%d}", len(sh.GroupBy), len(sh.Aggregates))
			if sh.Having != "" {
				b.WriteString("+having")
			}
		case ShapeParallelScan:
			b.WriteString(">pscan")
		case ShapeZoneSkip:
			b.WriteString(">zskip")
		case ShapeSort:
			fmt.Fprintf(&b, ">sort{%d}", len(sh.Keys))
		case ShapeTopK:
			fmt.Fprintf(&b, ">topk{%d,%d}", len(sh.Keys), sh.K)
		case ShapeLimit:
			fmt.Fprintf(&b, ">limit{%d}", sh.K)
		}
	}
	return b.String()
}

// outerWord names an outer join step's kind, "left" or "right"; it is empty
// for a scan or an inner join.
func (st *Step) outerWord() string {
	switch st.Join {
	case sqlparser.JoinLeft:
		return "left"
	case sqlparser.JoinRight:
		return "right"
	default:
		return ""
	}
}

// ---------------------------------------------------------------------------
// Conjunct analysis
// ---------------------------------------------------------------------------

// conjunct is one analyzed WHERE/ON conjunct.
type conjunct struct {
	expr sqlparser.Expr
	// inputs is the set of FROM entries referenced (by index), ascending;
	// it starts in buf, which holds the common one or two without allocating.
	inputs []int
	buf    [2]int
	// post marks conjuncts deferred to the residual phase: subqueries and
	// references the planner cannot resolve locally (outer correlation).
	post bool
	// consumed marks join equalities folded into an access path.
	consumed bool
	// eq is set for `colref = colref` conjuncts linking two distinct inputs.
	eq *joinEdge
	// opaque marks a conjunct the planner cannot resolve to slots: an
	// ambiguous or unknown reference, or an ON conjunct that is not resolved
	// within its own join. The plan keeps FROM order and places it where the
	// interpreter evaluates it; the engine compiles it there.
	opaque bool
	// on is the FROM position whose join step an ON conjunct is pinned to, -1
	// for a WHERE conjunct and for an inner join's ON conjunct planned like
	// one. after is the last RIGHT join's position (-1 for none): a WHERE
	// conjunct filters no step before it, since that join pads every input
	// before it.
	on, after int
}

// joinEdge is an equality between attributes of two FROM entries.
type joinEdge struct {
	a, b       int // input indices
	aPos, bPos int // attribute positions
	aRef, bRef *sqlparser.ColumnRef
}

// resolver maps column references to FROM entries, mirroring the engine's
// environment lookup (alias or relation name, case-insensitive; unqualified
// names must be unique across the clause).
type resolver struct {
	inputs  []Input
	offsets []int
}

// errAmbiguous, errUnresolved, and errBadAttr classify resolution failures:
// an unresolved name may be an outer-scope correlation (legal in
// subqueries); ambiguity and a matched table with a missing attribute are
// opaque, so they raise the engine's error wherever a row reaches them.
var (
	errAmbiguous  = fmt.Errorf("ambiguous column reference")
	errUnresolved = fmt.Errorf("unresolved column reference")
	errBadAttr    = fmt.Errorf("unknown attribute on a matched relation")
)

// resolve returns the (input index, attribute position) of a reference.
func (r *resolver) resolve(c *sqlparser.ColumnRef) (int, int, error) {
	if c.Table != "" {
		match := -1
		for i := range r.inputs {
			in := &r.inputs[i]
			if strings.EqualFold(in.Alias, c.Table) || strings.EqualFold(in.Rel.Name, c.Table) {
				if match >= 0 {
					return 0, 0, errAmbiguous
				}
				match = i
			}
		}
		if match < 0 {
			return 0, 0, errUnresolved // possibly an outer-scope correlation
		}
		pos := r.inputs[match].Rel.AttrIndex(c.Column)
		if pos < 0 {
			return 0, 0, errBadAttr
		}
		return match, pos, nil
	}
	match, pos := -1, -1
	for i := range r.inputs {
		if p := r.inputs[i].Rel.AttrIndex(c.Column); p >= 0 {
			if match >= 0 {
				return 0, 0, errAmbiguous
			}
			match, pos = i, p
		}
	}
	if match < 0 {
		return 0, 0, errUnresolved
	}
	return match, pos, nil
}

// slot converts an (input, attribute position) pair to an absolute slot.
func (r *resolver) slot(input, pos int) int { return r.offsets[input] + pos }

// hasSubquery reports whether the expression contains a nested SELECT.
func hasSubquery(e sqlparser.Expr) bool {
	found := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		switch s := x.(type) {
		case *sqlparser.InExpr:
			if s.Subquery != nil {
				found = true
				return false
			}
		case *sqlparser.ExistsExpr, *sqlparser.QuantifiedExpr, *sqlparser.SubqueryExpr:
			found = true
			return false
		}
		return true
	})
	return found
}

// analyze classifies one conjunct. Subqueries and outer-scope correlations
// defer to the residual phase. Ambiguous references, attributes missing on a
// matched relation and names that resolve nowhere when no outer scope can
// supply them are opaque: the engine raises its error on the first row
// that reaches the conjunct, and none when no row does.
func analyze(e sqlparser.Expr, res *resolver, hasOuter bool) *conjunct {
	c := &conjunct{expr: e, on: -1, after: -1}
	c.inputs = c.buf[:0]
	if hasSubquery(e) {
		c.post = true
		return c
	}
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		ref, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			return true
		}
		in, _, err := res.resolve(ref)
		switch {
		case err == nil:
			if i, found := slices.BinarySearch(c.inputs, in); !found {
				c.inputs = slices.Insert(c.inputs, i, in)
			}
		case err == errUnresolved && hasOuter:
			c.post = true // outer correlation: defer to the residual phase
		default:
			c.opaque = true
		}
		return true
	})
	if c.opaque {
		c.post = false
		return c
	}
	if c.post {
		return c
	}
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == sqlparser.OpEq {
		l, lok := b.Left.(*sqlparser.ColumnRef)
		r, rok := b.Right.(*sqlparser.ColumnRef)
		if lok && rok {
			li, lp, lerr := res.resolve(l)
			ri, rp, rerr := res.resolve(r)
			if lerr == nil && rerr == nil && li != ri {
				c.eq = &joinEdge{a: li, b: ri, aPos: lp, bPos: rp, aRef: l, bRef: r}
			}
		}
	}
	return c
}

// analyzeOn classifies the ON conjunct of input i. In a query without outer
// joins a conjunct resolved within its own join — every reference qualified
// and bound by FROM positions 0..i — is planned like a WHERE conjunct, which
// is equivalent for inner joins. Any other ON conjunct is pinned to its join
// step, where it sees exactly its FROM prefix, and is opaque unless every
// reference resolves within that prefix.
func analyzeOn(e sqlparser.Expr, res *resolver, i int, hasOuter, outerJoins bool) *conjunct {
	c := analyze(e, res, hasOuter)
	within := !c.post && !c.opaque
	for _, in := range c.inputs {
		within = within && in <= i
	}
	qualified := true
	for _, ref := range sqlparser.ColumnRefs(e) {
		qualified = qualified && ref.Table != ""
	}
	if within && qualified && !outerJoins {
		return c
	}
	c.on = i
	if !within {
		c.post, c.opaque, c.eq = false, true, nil
	}
	return c
}

// at reports whether c may filter, or drive the access path of, the step that
// joins input in (at FROM position i): an ON conjunct pinned to its join step
// only there, any other conjunct at an inner join step no earlier than the
// last RIGHT join.
func (c *conjunct) at(i int, in *Input) bool {
	if c.on >= 0 {
		return c.on == i
	}
	return in.Join == sqlparser.JoinInner && i >= c.after
}

// selfAt reports whether c filters input in's own rows before its join: a
// resolved single-input conjunct over it that may filter its step, except on
// a RIGHT step, whose own rows are the side it keeps.
func (c *conjunct) selfAt(i int, in *Input) bool {
	return !c.post && !c.opaque && len(c.inputs) == 1 && c.inputs[0] == i &&
		c.at(i, in) && in.Join != sqlparser.JoinRight
}

// stepOf returns the FROM position of the step a conjunct filters in a plan
// that keeps FROM order, or -1 when it filters the joined rows after every
// step. An ON conjunct pinned to its join stays there; an opaque WHERE
// conjunct goes where the interpreter evaluates it; a resolved one binds at
// its last input, but no earlier than the last RIGHT join, and not at an outer
// join step — a WHERE conjunct there filters the padded rows after the join.
func stepOf(c *conjunct, inputs []Input) int {
	switch {
	case c.on >= 0:
		return c.on
	case c.opaque:
		return interpreterStep(c.expr, inputs, c.after)
	}
	si := max(c.after, 0)
	for _, in := range c.inputs {
		si = max(si, in)
	}
	if inputs[si].Join != sqlparser.JoinInner {
		return -1
	}
	return si
}

// interpreterStep is the interpreter's binding rule for a WHERE conjunct: the
// first inner join step, not before the last RIGHT join, at which every
// column reference is bound — qualified by the alias of an entry joined so
// far, or unqualified and an attribute of exactly one of them — and failing
// that the last step; -1 when that is an outer join, after which it filters
// the joined rows.
func interpreterStep(e sqlparser.Expr, inputs []Input, after int) int {
	for i := range inputs {
		if inputs[i].Join != sqlparser.JoinInner || i < after {
			continue
		}
		if i == len(inputs)-1 || boundIn(e, inputs[:i+1]) {
			return i
		}
	}
	return -1
}

// boundIn reports whether every column reference of e is bound by the prefix
// in the interpreter's sense (see interpreterStep).
func boundIn(e sqlparser.Expr, prefix []Input) bool {
	for _, ref := range sqlparser.ColumnRefs(e) {
		n := 0
		for _, in := range prefix {
			if ref.Table == "" && in.Rel.AttrIndex(ref.Column) >= 0 || ref.Table != "" && strings.EqualFold(in.Alias, ref.Table) {
				n++
			}
		}
		if n == 0 || ref.Table == "" && n > 1 {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Selectivity estimation
// ---------------------------------------------------------------------------

const (
	defaultSelectivity = 1.0 / 3
	rangeSelectivity   = 1.0 / 3
	likeSelectivity    = 1.0 / 4
	betweenSelectivity = 1.0 / 4
)

// literalOf returns the value of a literal expression, or ok=false.
func literalOf(e sqlparser.Expr) (value.Value, bool) {
	l, ok := e.(*sqlparser.Literal)
	if !ok {
		return value.Value{}, false
	}
	return l.Value, true
}

// selectivity estimates the fraction of input-`in` rows a single-table
// conjunct keeps, given the table's statistics.
func selectivity(e sqlparser.Expr, in int, res *resolver, st *storage.TableStats) float64 {
	rows := float64(st.Rows)
	if rows == 0 {
		return 1
	}
	attrOf := func(x sqlparser.Expr) (int, bool) {
		c, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			return 0, false
		}
		i, p, err := res.resolve(c)
		if err != nil || i != in {
			return 0, false
		}
		return p, true
	}
	distinctOf := func(pos int) float64 {
		d := float64(st.Attrs[pos].Distinct)
		if d < 1 {
			d = 1
		}
		return d
	}
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		pos, lit, colLeft, ok := splitColLit(x, attrOf)
		if !ok {
			return defaultSelectivity
		}
		op := x.Op
		if !colLeft {
			op = op.Inverse() // 5 < col  ⇔  col > 5
		}
		switch op {
		case sqlparser.OpEq:
			return 1 / distinctOf(pos)
		case sqlparser.OpNe:
			return 1 - 1/distinctOf(pos)
		case sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
			return rangeFraction(op, &st.Attrs[pos], lit)
		case sqlparser.OpLike:
			return likeSelectivity
		}
		return defaultSelectivity
	case *sqlparser.BetweenExpr:
		return betweenSelectivity
	case *sqlparser.IsNullExpr:
		pos, ok := attrOf(x.Inner)
		if !ok {
			return defaultSelectivity
		}
		nullFrac := (rows - float64(st.Attrs[pos].NonNull)) / rows
		if x.Negate {
			return 1 - nullFrac
		}
		return nullFrac
	case *sqlparser.InExpr:
		pos, ok := attrOf(x.Subject)
		if !ok || len(x.List) == 0 {
			return defaultSelectivity
		}
		s := float64(len(x.List)) / distinctOf(pos)
		if s > 1 {
			s = 1
		}
		return s
	}
	return defaultSelectivity
}

// splitColLit decomposes `col op literal` / `literal op col` into the column
// position, the literal, and whether the column sits on the left.
func splitColLit(x *sqlparser.BinaryExpr, attrOf func(sqlparser.Expr) (int, bool)) (int, value.Value, bool, bool) {
	if pos, ok := attrOf(x.Left); ok {
		if lit, ok := literalOf(x.Right); ok {
			return pos, lit, true, true
		}
	}
	if pos, ok := attrOf(x.Right); ok {
		if lit, ok := literalOf(x.Left); ok {
			return pos, lit, false, true
		}
	}
	return 0, value.Value{}, false, false
}

// rangeFraction interpolates a comparison's selectivity from min/max bounds
// when the attribute and literal are numeric; otherwise a fixed fraction.
// The operator is normalized to column-on-the-left orientation.
func rangeFraction(op sqlparser.BinaryOp, a *storage.AttrStats, lit value.Value) float64 {
	if a.Min.IsNull() || !a.Min.IsNumeric() || !lit.IsNumeric() {
		return rangeSelectivity
	}
	lo, hi, v := a.Min.Float(), a.Max.Float(), lit.Float()
	if hi <= lo {
		return rangeSelectivity
	}
	frac := (v - lo) / (hi - lo)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch op {
	case sqlparser.OpLt, sqlparser.OpLe:
		return clampSel(frac)
	case sqlparser.OpGt, sqlparser.OpGe:
		return clampSel(1 - frac)
	}
	return rangeSelectivity
}

func clampSel(s float64) float64 {
	if s < 0.001 {
		return 0.001
	}
	if s > 1 {
		return 1
	}
	return s
}
