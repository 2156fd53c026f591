package querytotext

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/lexicon"
	"repro/internal/queryclassify"
	"repro/internal/querygraph"
	"repro/internal/rewrite"
	"repro/internal/sqlparser"
)

// Options tunes translation.
type Options struct {
	// Elaborate enables the paper's "more elaborated translation
	// techniques": heading attributes replaced by the conceptual meaning of
	// the relation ("Find movies where Brad Pitt plays" instead of "Find
	// the titles of movies where the actor Brad Pitt plays").
	Elaborate bool
}

// Translation is the result of translating one statement.
type Translation struct {
	// Text is the narrative.
	Text string
	// Class is the query's difficulty classification (empty for DML).
	Class queryclassify.Result
	// Declarative reports whether the narrative states what the answer
	// satisfies (true) or the steps to compute it (false) — the paper's
	// declarative/procedural distinction.
	Declarative bool
	// Notes records rewrites and idioms applied on the way.
	Notes []string
}

// Translator translates queries posed against one schema.
type Translator struct {
	schema *catalog.Schema
	verbs  *VerbSet
	opts   Options
}

// New builds a translator. verbs may be nil (generic phrasings only).
func New(schema *catalog.Schema, verbs *VerbSet, opts Options) *Translator {
	return &Translator{schema: schema, verbs: verbs, opts: opts}
}

// TranslateSQL parses and translates one statement.
func (t *Translator) TranslateSQL(src string) (*Translation, error) {
	stmt, err := sqlparser.Parse(src)
	if err != nil {
		return nil, err
	}
	return t.TranslateStatement(stmt)
}

// Translate translates a SELECT statement by classification-directed
// strategy dispatch.
func (t *Translator) Translate(sel *sqlparser.SelectStmt) (*Translation, error) {
	g, err := querygraph.Build(sel, t.schema)
	if err != nil {
		return nil, err
	}
	cls := queryclassify.Classify(g)

	var tr *Translation
	switch cls.Category {
	case queryclassify.Impossible:
		tr, err = t.translateImpossible(sel, g, cls)
	case queryclassify.NonGraph:
		if cls.Subtype == queryclassify.Aggregate {
			tr, err = t.translateAggregate(sel, g, cls)
		} else {
			tr, err = t.translateNested(sel, g, cls)
		}
	case queryclassify.Graph:
		tr, err = t.translateGraph(sel, g, cls)
	default: // Path, Subgraph
		text := t.translateSPJ(sel, g)
		tr = &Translation{Text: text, Declarative: true}
	}
	if err != nil {
		return nil, err
	}
	tr.Class = cls
	return tr, nil
}

// ---------------------------------------------------------------------------
// Path / Subgraph translation (§3.3.1–3.3.2)
// ---------------------------------------------------------------------------

// translateSPJ renders an SPJ query whose graph lies on the schema graph:
// "Find <projections> of <anchor noun phrase with modifiers>", plus
// ORDER BY / LIMIT / DISTINCT riders.
func (t *Translator) translateSPJ(sel *sqlparser.SelectStmt, g *querygraph.Graph) string {
	anchor := t.pickAnchor(g)
	if anchor == nil {
		// No FROM entry: nothing to anchor a noun phrase on.
		return t.TranslateNaive(sel, g)
	}
	np := t.anchorNounPhrase(g, anchor)
	head := t.projectionPhrase(sel, g, anchor, np)
	if sel.Distinct {
		head += ", without duplicates"
	}
	head += t.orderLimitRider(sel)
	return lexicon.Sentence("Find " + head)
}

// orderLimitRider phrases ORDER BY and LIMIT clauses: ", sorted by year
// from newest to oldest, keeping only the first ten".
func (t *Translator) orderLimitRider(sel *sqlparser.SelectStmt) string {
	var rider string
	if len(sel.OrderBy) > 0 {
		var keys []string
		for _, o := range sel.OrderBy {
			key := o.Expr.SQL()
			if c, ok := o.Expr.(*sqlparser.ColumnRef); ok {
				key = lexicon.Humanize(c.Column)
			}
			if o.Desc {
				key += " in descending order"
			}
			keys = append(keys, key)
		}
		rider += ", sorted by " + lexicon.JoinAnd(keys)
	}
	switch {
	case sel.Limit == 1:
		rider += ", keeping only the first result"
	case sel.Limit >= 0:
		rider += ", keeping only the first " + lexicon.CountNoun(sel.Limit, "result")
	}
	return rider
}

// pickAnchor selects the relation the sentence is about: the projected box
// with the highest join degree, falling back to the highest-degree box.
func (t *Translator) pickAnchor(g *querygraph.Graph) *querygraph.Box {
	deg := map[string]int{}
	for _, j := range g.Joins {
		deg[strings.ToLower(j.From)]++
		deg[strings.ToLower(j.To)]++
	}
	var best *querygraph.Box
	bestDeg := -1
	for _, b := range g.Boxes {
		if len(b.Select) == 0 {
			continue
		}
		if d := deg[strings.ToLower(b.Alias)]; d > bestDeg {
			best, bestDeg = b, d
		}
	}
	if best != nil {
		return best
	}
	for _, b := range g.Boxes {
		if d := deg[strings.ToLower(b.Alias)]; d > bestDeg {
			best, bestDeg = b, d
		}
	}
	if best == nil && len(g.Boxes) > 0 {
		return g.Boxes[0]
	}
	return best
}

// anchorNounPhrase builds "<adjectives> <anchor concept plural> <by-phrases>
// <where-clauses> <generic constraints>" from the non-anchor boxes' unary
// constraints and the verb annotations.
func (t *Translator) anchorNounPhrase(g *querygraph.Graph, anchor *querygraph.Box) string {
	anchorRel := t.schema.Relation(anchor.Relation)
	base := lexicon.Pluralize(conceptOf(anchorRel, anchor.Relation))

	var adjectives, byPhrases, whereClauses, ofPhrases, generic []string
	for _, b := range g.Boxes {
		if b == anchor {
			continue
		}
		rel := t.schema.Relation(b.Relation)
		for _, cond := range b.Where {
			attr, val, eq := equalityConst(cond)
			verb, hasVerb := t.verbs.Lookup(b.Relation, anchor.Relation)
			isHeading := rel != nil && strings.EqualFold(relHeading(rel), attr)
			switch {
			case eq && isHeading && hasVerb && verb.Adjective:
				adjectives = append(adjectives, val)
			case eq && isHeading && hasVerb && verb.By != "":
				byPhrases = append(byPhrases, fmt.Sprintf(verb.By, val))
			case eq && isHeading && hasVerb && verb.Where != "":
				subject := val
				if !t.opts.Elaborate {
					subject = "the " + conceptOf(rel, b.Relation) + " " + val
				}
				whereClauses = append(whereClauses, fmt.Sprintf(verb.Where, subject))
			case eq && isHeading:
				// No verb label: name the entity through its concept —
				// "directors of the movie 'Match Point'".
				ofPhrases = append(ofPhrases, "of the "+conceptOf(rel, b.Relation)+" '"+val+"'")
			default:
				generic = append(generic, constraintEnglish(cond))
			}
		}
	}
	// Anchor's own unary constraints.
	for _, cond := range anchor.Where {
		generic = append(generic, constraintEnglish(cond))
	}

	var np strings.Builder
	if len(adjectives) > 0 {
		np.WriteString(strings.Join(adjectives, " "))
		np.WriteByte(' ')
	}
	np.WriteString(base)
	for _, p := range ofPhrases {
		np.WriteByte(' ')
		np.WriteString(p)
	}
	for _, p := range byPhrases {
		np.WriteByte(' ')
		np.WriteString(p)
	}
	for _, p := range whereClauses {
		np.WriteByte(' ')
		np.WriteString(p)
	}
	for i, p := range generic {
		if i == 0 {
			np.WriteString(" whose ")
		} else {
			np.WriteString(" and whose ")
		}
		np.WriteString(p)
	}
	return np.String()
}

// constraintEnglish renders one unary constraint as a "whose ..." fragment:
// "year is 2005".
func constraintEnglish(cond sqlparser.Expr) string {
	if b, ok := cond.(*sqlparser.BinaryExpr); ok && b.Op.IsComparison() {
		if c, ok := b.Left.(*sqlparser.ColumnRef); ok {
			gloss := lexicon.Humanize(c.Column)
			if lit, ok := b.Right.(*sqlparser.Literal); ok {
				return gloss + " " + opEnglish(b.Op) + " " + valueEnglish(lit.Value)
			}
			return gloss + " " + opEnglish(b.Op) + " " + b.Right.SQL()
		}
	}
	return cond.SQL()
}

// equalityConst extracts (attr, value) from a.name = 'Brad Pitt'-style
// conditions.
func equalityConst(cond sqlparser.Expr) (attr, val string, ok bool) {
	b, isBin := cond.(*sqlparser.BinaryExpr)
	if !isBin || b.Op != sqlparser.OpEq {
		return "", "", false
	}
	c, isCol := b.Left.(*sqlparser.ColumnRef)
	lit, isLit := b.Right.(*sqlparser.Literal)
	if !isCol || !isLit {
		// Try reversed.
		c, isCol = b.Right.(*sqlparser.ColumnRef)
		lit, isLit = b.Left.(*sqlparser.Literal)
		if !isCol || !isLit {
			return "", "", false
		}
	}
	return c.Column, lit.Value.String(), true
}

// projectionPhrase renders the select list relative to the anchor noun
// phrase. Heading projections of non-anchor relations become bare concept
// plurals ("the actors"); anchor-attribute projections become "the <gloss
// plural> of <np>"; in elaborate mode a lone anchor-heading projection
// collapses to the noun phrase itself ("movies where Brad Pitt plays").
func (t *Translator) projectionPhrase(sel *sqlparser.SelectStmt, g *querygraph.Graph, anchor *querygraph.Box, np string) string {
	type part struct {
		text     string
		ofAnchor bool
	}
	var parts []part
	bareAnchor := false
	for _, it := range sel.Items {
		c, ok := it.Expr.(*sqlparser.ColumnRef)
		if !ok {
			parts = append(parts, part{text: t.operandEnglish(it.Expr, g)})
			continue
		}
		box := boxOfRef(g, c)
		rel := (*catalog.Relation)(nil)
		if box != nil {
			rel = t.schema.Relation(box.Relation)
		}
		if box == anchor {
			isHeading := rel != nil && strings.EqualFold(relHeading(rel), c.Column)
			if isHeading && t.opts.Elaborate {
				bareAnchor = true
				continue
			}
			parts = append(parts, part{text: "the " + lexicon.Pluralize(lexicon.Humanize(c.Column)), ofAnchor: true})
			continue
		}
		if rel != nil && strings.EqualFold(relHeading(rel), c.Column) {
			parts = append(parts, part{text: "the " + lexicon.Pluralize(conceptOf(rel, box.Relation))})
			continue
		}
		concept := c.Table
		if rel != nil {
			concept = conceptOf(rel, box.Relation)
		}
		parts = append(parts, part{text: "the " + lexicon.Pluralize(lexicon.Humanize(c.Column)) + " of the " + lexicon.Pluralize(concept)})
	}
	if bareAnchor && len(parts) == 0 {
		return np
	}
	// Attach the anchor NP to the last anchor-bound projection (or append).
	texts := make([]string, len(parts))
	attached := false
	for i := len(parts) - 1; i >= 0; i-- {
		texts[i] = parts[i].text
		if parts[i].ofAnchor && !attached {
			texts[i] += " of " + np
			attached = true
		}
	}
	if !attached {
		if bareAnchor {
			texts = append(texts, np)
		} else if len(texts) == 0 {
			return np
		} else {
			// No anchor projection: qualify with "of <np>" once.
			texts[len(texts)-1] += " of " + np
		}
	}
	// Only the first conjunct keeps its article: "the actors and titles of
	// action movies", matching the paper's phrasing.
	for i := 1; i < len(texts); i++ {
		texts[i] = strings.TrimPrefix(texts[i], "the ")
	}
	return lexicon.JoinAnd(texts)
}

func boxOfRef(g *querygraph.Graph, c *sqlparser.ColumnRef) *querygraph.Box {
	for _, b := range g.Boxes {
		if strings.EqualFold(b.Alias, c.Table) {
			return b
		}
	}
	return nil
}

func conceptOf(rel *catalog.Relation, fallback string) string {
	if rel != nil {
		return rel.Concept()
	}
	return strings.ToLower(fallback)
}

// ---------------------------------------------------------------------------
// Graph queries (§3.3.3)
// ---------------------------------------------------------------------------

func (t *Translator) translateGraph(sel *sqlparser.SelectStmt, g *querygraph.Graph, cls queryclassify.Result) (*Translation, error) {
	// Pairing idiom (Q3).
	if p, ok := rewrite.DetectPairs(g, t.schema); ok {
		rel := t.schema.Relation(p.Relation)
		shared := t.schema.Relation(p.Shared)
		participle := "shared"
		if v, ok := t.verbs.Lookup(p.Relation, p.Shared); ok && v.Participle != "" {
			participle = v.Participle
		}
		text := fmt.Sprintf("Find pairs of %s who have %s the same %s",
			lexicon.Pluralize(conceptOf(rel, p.Relation)), participle, conceptOf(shared, p.Shared))
		return &Translation{
			Text:        lexicon.Sentence(text),
			Declarative: true,
			Notes:       []string{"key-inequality self-join recognized as the pairing idiom"},
		}, nil
	}
	// Comparative idiom (intro's EMP query).
	if c, ok := rewrite.DetectComparative(g, t.schema); ok {
		rel := t.schema.Relation(c.Relation)
		gloss := lexicon.Humanize(c.Attr)
		verb := t.verbs.ComparativeVerb(c.Relation, c.Attr, gloss, c.Greater)
		role := "counterparts"
		if c.RoleAttr != "" {
			role = lexicon.Pluralize(lexicon.Humanize(c.RoleAttr))
		}
		proj := t.graphProjectionGlosses(sel, g, c.Aliases[0])
		head := lexicon.Pluralize(conceptOf(rel, c.Relation))
		text := "Find "
		if len(proj) > 0 {
			text += "the " + lexicon.JoinAnd(proj) + " of "
		}
		text += fmt.Sprintf("%s who %s their %s", head, verb, role)
		return &Translation{
			Text:        lexicon.Sentence(text),
			Declarative: true,
			Notes:       []string{"non-key self-join comparison recognized as the comparative idiom"},
		}, nil
	}
	// Cyclic pattern (Q4): an FK edge plus a non-FK equality between the
	// same two boxes.
	if cyc, ok := t.cyclicAttributePhrase(sel, g); ok {
		return &Translation{
			Text:        cyc,
			Declarative: true,
			Notes:       []string{"two-edge cycle translated with a non-local label"},
		}, nil
	}
	// Fallback: the naive rendering the paper shows for Q3 before
	// introducing non-local labels.
	return &Translation{
		Text:        t.TranslateNaive(sel, g),
		Declarative: true,
		Notes:       []string{"no idiom matched; naive per-edge rendering used"},
	}, nil
}

// graphProjectionGlosses lists the projected attribute glosses of one alias.
func (t *Translator) graphProjectionGlosses(sel *sqlparser.SelectStmt, g *querygraph.Graph, alias string) []string {
	var out []string
	for _, it := range sel.Items {
		if c, ok := it.Expr.(*sqlparser.ColumnRef); ok && strings.EqualFold(c.Table, alias) {
			out = append(out, lexicon.Pluralize(lexicon.Humanize(c.Column)))
		}
	}
	return out
}

// cyclicAttributePhrase handles Q4: "Find movies whose title is one of
// their roles".
func (t *Translator) cyclicAttributePhrase(sel *sqlparser.SelectStmt, g *querygraph.Graph) (string, bool) {
	if len(g.Boxes) != 2 || len(g.Joins) != 2 {
		return "", false
	}
	var fkEdge, attrEdge *querygraph.JoinEdge
	for i := range g.Joins {
		if g.Joins[i].FK {
			fkEdge = &g.Joins[i]
		} else if g.Joins[i].Equi {
			attrEdge = &g.Joins[i]
		}
	}
	if fkEdge == nil || attrEdge == nil {
		return "", false
	}
	// The anchor is the projected box.
	anchor := t.pickAnchor(g)
	if anchor == nil || len(anchor.Select) == 0 {
		return "", false
	}
	anchorRel := t.schema.Relation(anchor.Relation)
	// The non-FK equality c.role = m.title.
	l, lok := attrEdge.Cond.Left.(*sqlparser.ColumnRef)
	r, rok := attrEdge.Cond.Right.(*sqlparser.ColumnRef)
	if !lok || !rok {
		return "", false
	}
	var anchorAttr, otherAttr string
	if strings.EqualFold(l.Table, anchor.Alias) {
		anchorAttr, otherAttr = l.Column, r.Column
	} else if strings.EqualFold(r.Table, anchor.Alias) {
		anchorAttr, otherAttr = r.Column, l.Column
	} else {
		return "", false
	}
	text := fmt.Sprintf("Find %s whose %s is one of their %s",
		lexicon.Pluralize(conceptOf(anchorRel, anchor.Relation)),
		lexicon.Humanize(anchorAttr),
		lexicon.Pluralize(lexicon.Humanize(otherAttr)))
	return lexicon.Sentence(text), true
}

// TranslateNaive renders the paper's "quite unnatural" baseline: one clause
// per projection, join, and constraint, composed with "and". It exists as
// the ablation baseline for the non-local-label translations.
func (t *Translator) TranslateNaive(sel *sqlparser.SelectStmt, g *querygraph.Graph) string {
	var clauses []string
	for _, it := range sel.Items {
		if c, ok := it.Expr.(*sqlparser.ColumnRef); ok {
			box := boxOfRef(g, c)
			if box != nil {
				rel := t.schema.Relation(box.Relation)
				clauses = append(clauses, fmt.Sprintf("the %s of %s %s",
					lexicon.Humanize(c.Column),
					lexicon.WithArticle(conceptOf(rel, box.Relation)), c.Table))
				continue
			}
		}
		clauses = append(clauses, t.operandEnglish(it.Expr, g))
	}
	head := "Find " + lexicon.JoinAnd(clauses)
	if conds := t.conditionsEnglish(g); len(conds) > 0 {
		head += " such that " + strings.Join(conds, ", and ")
	}
	return lexicon.Sentence(head)
}

// conditionsEnglish renders the join edges' predicates, then each box's
// unary constraints.
func (t *Translator) conditionsEnglish(g *querygraph.Graph) []string {
	var conds []string
	for _, j := range g.Joins {
		conds = append(conds, t.PredicateEnglish(j.Cond, g))
	}
	for _, b := range g.Boxes {
		for _, w := range b.Where {
			conds = append(conds, t.PredicateEnglish(w, g))
		}
	}
	return conds
}

// ---------------------------------------------------------------------------
// Non-graph: nested (§3.3.4)
// ---------------------------------------------------------------------------

func (t *Translator) translateNested(sel *sqlparser.SelectStmt, g *querygraph.Graph, cls queryclassify.Result) (*Translation, error) {
	// Division first (Q6): unnesting cannot flatten NOT EXISTS.
	if d, ok := rewrite.DetectDivision(sel); ok {
		outer := t.schema.Relation(d.OuterRelation)
		divisor := t.schema.Relation(d.DivisorRelation)
		text := fmt.Sprintf("Find %s that have all %s",
			lexicon.Pluralize(conceptOf(outer, d.OuterRelation)),
			lexicon.Pluralize(conceptOf(divisor, d.DivisorRelation)))
		return &Translation{
			Text:        lexicon.Sentence(text),
			Declarative: true,
			Notes:       []string{"double NOT EXISTS recognized as relational division"},
		}, nil
	}
	// IN-unnesting (Q5 → Q1): when the rewrite eliminates every nested
	// block, translate the flat form.
	res := rewrite.UnnestIn(sel)
	if res.Unnested > 0 {
		flatGraph, err := querygraph.Build(res.Stmt, t.schema)
		if err == nil && len(flatGraph.Nested) == 0 {
			inner, err := t.Translate(res.Stmt)
			if err == nil {
				inner.Notes = append(inner.Notes,
					fmt.Sprintf("%d nested IN block(s) flattened into joins before translation", res.Unnested))
				return inner, nil
			}
		}
	}
	// Procedural fallback: walk the block structure.
	return &Translation{
		Text:        t.proceduralText(sel, g),
		Declarative: false,
		Notes:       []string{"no flat equivalent found; procedural rendering used"},
	}, nil
}

// ---------------------------------------------------------------------------
// Non-graph: aggregates (Q7)
// ---------------------------------------------------------------------------

func (t *Translator) translateAggregate(sel *sqlparser.SelectStmt, g *querygraph.Graph, cls queryclassify.Result) (*Translation, error) {
	// The Q7 pattern: grouped count(*) with a HAVING threshold over a
	// correlated count subquery.
	if text, ok := t.countWithThreshold(sel, g); ok {
		return &Translation{
			Text:        text,
			Declarative: true,
			Notes:       []string{"grouped count with correlated HAVING threshold recognized"},
		}, nil
	}
	// Generic declarative aggregate: "Find the number of X per Y [where..]".
	if text, ok := t.simpleGroupedAggregate(sel, g); ok {
		return &Translation{Text: text, Declarative: true}, nil
	}
	return &Translation{
		Text:        t.proceduralText(sel, g),
		Declarative: false,
		Notes:       []string{"aggregate shape has no declarative pattern; procedural rendering used"},
	}, nil
}

// countWithThreshold reproduces the paper's Q7 target: "Find the number of
// actors in movies of more than one genre".
func (t *Translator) countWithThreshold(sel *sqlparser.SelectStmt, g *querygraph.Graph) (string, bool) {
	if len(sel.GroupBy) == 0 || len(g.Nested) != 1 || !g.Nested[0].FromHaving {
		return "", false
	}
	blk := g.Nested[0]
	if blk.Conn != querygraph.ConnScalar || len(blk.Graph.Boxes) != 1 {
		return "", false
	}
	// Threshold from the HAVING comparison: "1 < (select count(*) ...)".
	threshold, cmpOK := havingThreshold(sel.Having)
	if !cmpOK {
		return "", false
	}
	// Counted concept: the box holding count(*); bridges count their other
	// FK target's concept (CAST counts actors).
	countedBox := boxWithCount(g)
	if countedBox == nil {
		return "", false
	}
	counted := t.countedConcept(countedBox, g)
	// Anchor: the grouped box.
	anchor := t.pickAnchor(g)
	anchorRel := t.schema.Relation(anchor.Relation)
	// Divisor concept from the nested block.
	nestedRel := t.schema.Relation(blk.Graph.Boxes[0].Relation)
	nestedConcept := conceptOf(nestedRel, blk.Graph.Boxes[0].Relation)

	text := fmt.Sprintf("Find the number of %s in %s of more than %s %s",
		lexicon.Pluralize(counted),
		lexicon.Pluralize(conceptOf(anchorRel, anchor.Relation)),
		lexicon.NumberWord(threshold),
		nestedConcept)
	return lexicon.Sentence(text), true
}

func havingThreshold(having sqlparser.Expr) (int, bool) {
	for _, c := range sqlparser.Conjuncts(having) {
		b, ok := c.(*sqlparser.BinaryExpr)
		if !ok {
			continue
		}
		if lit, ok := b.Left.(*sqlparser.Literal); ok && b.Op == sqlparser.OpLt {
			if _, isSub := b.Right.(*sqlparser.SubqueryExpr); isSub {
				return int(lit.Value.Int()), true
			}
		}
		if lit, ok := b.Right.(*sqlparser.Literal); ok && b.Op == sqlparser.OpGt {
			if _, isSub := b.Left.(*sqlparser.SubqueryExpr); isSub {
				return int(lit.Value.Int()), true
			}
		}
	}
	return 0, false
}

// boxWithCount returns the box whose select items hold a COUNT.
func boxWithCount(g *querygraph.Graph) *querygraph.Box {
	for _, b := range g.Boxes {
		for _, it := range b.Select {
			if hasCount(it.Expr) {
				return b
			}
		}
	}
	return nil
}

func hasCount(e sqlparser.Expr) bool {
	found := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if a, ok := x.(*sqlparser.AggregateExpr); ok && a.Func == sqlparser.AggCount {
			found = true
		}
		return !found
	})
	return found
}

// countedConcept maps a count(*) box to the concept being counted: for a
// bridge relation, the FK target absent from the query (CAST → actor);
// otherwise the relation's own concept.
func (t *Translator) countedConcept(box *querygraph.Box, g *querygraph.Graph) string {
	rel := t.schema.Relation(box.Relation)
	if rel == nil {
		return strings.ToLower(box.Relation)
	}
	if rel.Bridge {
		present := map[string]bool{}
		for _, b := range g.Boxes {
			present[strings.ToUpper(b.Relation)] = true
		}
		for _, fk := range rel.ForeignKey {
			if !present[strings.ToUpper(fk.RefRelation)] {
				if target := t.schema.Relation(fk.RefRelation); target != nil {
					return target.Concept()
				}
			}
		}
	}
	return rel.Concept()
}

// simpleGroupedAggregate renders "select g, count(*) ... group by g" style
// queries: "Find the number of <counted> per <group gloss>".
func (t *Translator) simpleGroupedAggregate(sel *sqlparser.SelectStmt, g *querygraph.Graph) (string, bool) {
	if sel.Having != nil || len(g.Nested) > 0 {
		return "", false
	}
	var aggText string
	for _, it := range sel.Items {
		if agg, ok := it.Expr.(*sqlparser.AggregateExpr); ok {
			if aggText != "" {
				return "", false
			}
			aggText = t.operandEnglish(agg, g)
			if agg.Arg == nil {
				counted := "rows"
				if box := boxWithCount(g); box != nil {
					counted = lexicon.Pluralize(t.countedConcept(box, g))
				}
				aggText = "the number of " + counted
			}
		}
	}
	if aggText == "" {
		return "", false
	}
	var groups []string
	for _, gb := range sel.GroupBy {
		if c, ok := gb.(*sqlparser.ColumnRef); ok {
			groups = append(groups, lexicon.Humanize(c.Column))
		} else {
			groups = append(groups, gb.SQL())
		}
	}
	text := "Find " + aggText
	if len(groups) > 0 {
		text += " per " + lexicon.JoinAnd(groups)
	}
	if sel.Where != nil {
		text += " where " + t.PredicateEnglish(sel.Where, g)
	}
	return lexicon.Sentence(text), true
}

// ---------------------------------------------------------------------------
// Impossible queries (§3.3.5)
// ---------------------------------------------------------------------------

func (t *Translator) translateImpossible(sel *sqlparser.SelectStmt, g *querygraph.Graph, cls queryclassify.Result) (*Translation, error) {
	switch cls.Subtype {
	case queryclassify.SameValueIdiom:
		if sv, ok := rewrite.DetectSameValue(sel); ok {
			subject := t.projectedConcept(sel, g)
			attrRel := t.relationOfRef(sv.Attr, g)
			object := "rows"
			if attrRel != nil {
				object = lexicon.Pluralize(attrRel.Concept())
			}
			text := fmt.Sprintf("Find %s whose %s are all in the same %s",
				subject, object, lexicon.Humanize(sv.Attr.Column))
			return &Translation{
				Text:        lexicon.Sentence(text),
				Declarative: true,
				Notes:       []string{"COUNT(DISTINCT)=1 recognized as the same-value idiom"},
			}, nil
		}
	case queryclassify.ExtremeIdiom:
		if e, ok := rewrite.DetectExtreme(sel); ok {
			subject := t.projectedConcept(sel, g)
			attrRel := t.relationOfRef(e.Attr, g)
			object := "rows"
			objectRelName := ""
			if attrRel != nil {
				object = lexicon.Pluralize(attrRel.Concept())
				objectRelName = attrRel.Name
			}
			extreme := "latest"
			if e.Min {
				extreme = "earliest"
			}
			participle := "been in"
			// Verb from the subject's relation to the attribute's relation.
			if rel := t.projectedRelation(sel, g); rel != nil && objectRelName != "" {
				if v, ok := t.verbs.Lookup(rel.Name, objectRelName); ok && v.Participle != "" {
					participle = v.Participle
				}
			}
			var text string
			if e.RepeatedOn != "" {
				text = fmt.Sprintf("Find the %s who have %s the %s versions of %s that have been repeated",
					subject, participle, extreme, object)
			} else {
				text = fmt.Sprintf("Find the %s who have %s the %s %s",
					subject, participle, extreme, object)
			}
			return &Translation{
				Text:        lexicon.Sentence(text),
				Declarative: true,
				Notes:       []string{fmt.Sprintf("quantified ALL recognized as the %s idiom", extreme)},
			}, nil
		}
	}
	// Idiom classified but extraction failed: procedural fallback keeps the
	// translation honest.
	return &Translation{
		Text:        t.proceduralText(sel, g),
		Declarative: false,
		Notes:       []string{"impossible-class idiom could not be extracted; procedural rendering used"},
	}, nil
}

// projectedConcept names what the query returns ("actors"), derived from
// the projected boxes.
func (t *Translator) projectedConcept(sel *sqlparser.SelectStmt, g *querygraph.Graph) string {
	if rel := t.projectedRelation(sel, g); rel != nil {
		return lexicon.Pluralize(rel.Concept())
	}
	return "results"
}

func (t *Translator) projectedRelation(sel *sqlparser.SelectStmt, g *querygraph.Graph) *catalog.Relation {
	for _, it := range sel.Items {
		if c, ok := it.Expr.(*sqlparser.ColumnRef); ok {
			if box := boxOfRef(g, c); box != nil {
				return t.schema.Relation(box.Relation)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Procedural rendering
// ---------------------------------------------------------------------------

// proceduralText renders any query as computation steps — the paper's
// procedural alternative, "the only reasonable approach" for complicated
// queries.
func (t *Translator) proceduralText(sel *sqlparser.SelectStmt, g *querygraph.Graph) string {
	var steps []string

	// Step 1: sources.
	var sources []string
	for _, b := range g.Boxes {
		rel := t.schema.Relation(b.Relation)
		c := conceptOf(rel, b.Relation)
		sources = append(sources, lexicon.WithArticle(c)+" "+b.Alias)
	}
	if len(sources) > 0 {
		steps = append(steps, lexicon.Sentence("Consider every combination of "+lexicon.JoinAnd(sources)))
	}

	// Step 2: join and filter conditions.
	if conds := t.conditionsEnglish(g); len(conds) > 0 {
		steps = append(steps, lexicon.Sentence("Keep the combinations where "+strings.Join(conds, ", and where ")))
	}

	// Step 3: nested blocks.
	for _, blk := range g.Nested {
		inner := t.proceduralText(blk.Graph.Stmt, blk.Graph)
		var step string
		switch blk.Conn {
		case querygraph.ConnNotExists:
			step = "Discard a combination if the following finds anything: " + inner
		case querygraph.ConnExists:
			step = "Keep a combination only if the following finds something: " + inner
		case querygraph.ConnIn, querygraph.ConnNotIn:
			step = fmt.Sprintf("Evaluate the nested question (%s) and test membership (%s): %s",
				blk.Label, blk.LinkText(), inner)
		case querygraph.ConnAll, querygraph.ConnAny:
			step = fmt.Sprintf("Compare against every value of the nested question (%s): %s", blk.LinkText(), inner)
		default:
			step = fmt.Sprintf("Compute the nested value (%s): %s", blk.LinkText(), inner)
		}
		steps = append(steps, lexicon.Sentence(step))
	}

	// Step 4: grouping.
	if len(sel.GroupBy) > 0 {
		var keys []string
		for _, gb := range sel.GroupBy {
			if c, ok := gb.(*sqlparser.ColumnRef); ok {
				keys = append(keys, lexicon.Humanize(c.Column))
			} else {
				keys = append(keys, gb.SQL())
			}
		}
		steps = append(steps, lexicon.Sentence("Group the combinations by "+lexicon.JoinAnd(keys)))
		if sel.Having != nil && len(g.Nested) == 0 {
			steps = append(steps, lexicon.Sentence("Keep the groups where "+t.PredicateEnglish(sel.Having, g)))
		}
	}

	// Step 5: output.
	var outs []string
	for _, it := range sel.Items {
		outs = append(outs, t.operandEnglish(it.Expr, g))
	}
	if len(outs) > 0 {
		steps = append(steps, lexicon.Sentence("Report "+lexicon.JoinAnd(outs)))
	}
	return strings.Join(steps, " ")
}
