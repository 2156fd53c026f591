// Package datatotext translates database contents into natural-language
// narratives (paper §2): it traverses the annotated schema graph from a
// point of interest, instantiates node/edge template labels over the actual
// tuples, detects the unary/join/split structural patterns, factors common
// expressions, and assembles compact (declarative) or procedural text under
// a configurable size budget with optional per-user personalization.
package datatotext

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/lexicon"
	"repro/internal/nlg"
	"repro/internal/schemagraph"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/templates"
	"repro/internal/value"
)

// Relationship annotates a semantic relationship between two relations,
// possibly through a bridge relation (the paper's DIRECTED, which
// "participates in the translation process only for connecting the other
// two"). The Template introduces the relationship ("As a director, NAME's
// work includes MOVIE_LIST"); the List renders the related tuples.
type Relationship struct {
	// From is the relation whose entity anchors the sentence.
	From string
	// To is the related relation whose tuples are enumerated.
	To string
	// Via is the bridge relation connecting From and To; empty when a
	// direct foreign key links them.
	Via string
	// Template is the head phrase; its fields resolve against the From
	// tuple plus ListField.
	Template *templates.Template
	// ListField is the placeholder in Template that receives the rendered
	// list (e.g. "MOVIE_LIST").
	ListField string
	// List renders the To tuples in compact mode (title + year inline).
	List *templates.ListTemplate
	// OrderBy optionally sorts the To tuples by this attribute before
	// rendering; Desc reverses.
	OrderBy string
	Desc    bool
	// Kind is the entity kind of the From subject (pronoun choice).
	Kind nlg.EntityKind
}

// Options tunes translation.
type Options struct {
	// Style selects compact or procedural synthesis; Auto lets the
	// translator choose per clause group (the paper's open challenge,
	// decided by nlg.ChooseRealization).
	Style nlg.Realization
	// Auto overrides Style with a per-group decision.
	Auto bool
	// MaxCompactClauses bounds the compact style (see ChooseRealization).
	MaxCompactClauses int
	// MaxListItems caps enumerate lists; 0 means unlimited. The ranking
	// rule keeps the first items after OrderBy sorting (the paper's "most
	// significant tuples ... presented first and the less significant
	// tuples ... ignored").
	MaxListItems int
	// MaxSentences caps a whole-database narrative; 0 means unlimited.
	MaxSentences int
	// MaxTuplesPerRelation caps per-relation enumeration in database
	// narratives; 0 means 3.
	MaxTuplesPerRelation int
	// MinWeight prunes relations below this traversal weight in
	// whole-database narratives.
	MinWeight float64
	// Profile personalizes heading attributes and weights.
	Profile *catalog.Profile
}

// Translator translates contents of one database. Every tuple it narrates
// is the answer to a SELECT it hands to an engine.Engine — the live database's
// engine, or one bound to a pinned MVCC snapshot via WithSource, which is how
// concurrent describe requests narrate a consistent committed state while
// writers keep committing.
type Translator struct {
	eng   *engine.Engine
	graph *schemagraph.Graph
	rels  []Relationship
	opts  Options
}

// New builds a translator that reads through eng, with the given annotated
// schema graph.
func New(eng *engine.Engine, graph *schemagraph.Graph, opts Options) *Translator {
	if opts.MaxTuplesPerRelation == 0 {
		opts.MaxTuplesPerRelation = 3
	}
	return &Translator{eng: eng, graph: graph, opts: opts}
}

// WithSource returns a translator that reads the version src pins (typically
// a storage.Snapshot) while sharing the schema graph, relationship
// annotations, and options. The clone is cheap; the original is not mutated.
func (t *Translator) WithSource(src storage.TableSource) *Translator {
	return &Translator{eng: t.eng.At(src.Snapshot()), graph: t.graph, rels: t.rels, opts: t.opts}
}

// WithBudget returns a translator whose queries poll b, so a narration stops
// with the budget's CancelError instead of outliving its request.
func (t *Translator) WithBudget(b *engine.Budget) *Translator {
	return &Translator{eng: t.eng.WithBudget(b), graph: t.graph, rels: t.rels, opts: t.opts}
}

func (t *Translator) schema() *catalog.Schema { return t.eng.Source().Schema() }

// Options returns a copy of the translator's options.
func (t *Translator) Options() Options { return t.opts }

// SetOptions replaces the options. It mutates the translator in place and
// must not race with concurrent describes; concurrent callers should use
// WithOptions instead.
func (t *Translator) SetOptions(opts Options) {
	if opts.MaxTuplesPerRelation == 0 {
		opts.MaxTuplesPerRelation = 3
	}
	t.opts = opts
}

// WithOptions returns a new translator with the given options that shares
// the underlying database, schema graph, and relationship annotations. The
// clone is cheap, and because a published translator is never mutated it is
// the concurrency-safe way to personalize narration per session (§2.2
// profiles) without disturbing other sessions.
func (t *Translator) WithOptions(opts Options) *Translator {
	if opts.MaxTuplesPerRelation == 0 {
		opts.MaxTuplesPerRelation = 3
	}
	return &Translator{eng: t.eng, graph: t.graph, rels: t.rels, opts: opts}
}

// AddRelationship registers a relationship annotation after validating that
// its relations and join path exist. A bridge must hold a foreign key onto
// the primary key of each end, so that a bridge row names exactly one tuple
// on either side.
func (t *Translator) AddRelationship(r Relationship) error {
	schema := t.schema()
	from := schema.Relation(r.From)
	to := schema.Relation(r.To)
	if from == nil || to == nil {
		return fmt.Errorf("datatotext: relationship %s→%s references unknown relations", r.From, r.To)
	}
	if r.Via != "" {
		via := schema.Relation(r.Via)
		if via == nil {
			return fmt.Errorf("datatotext: bridge relation %q does not exist", r.Via)
		}
		for _, end := range []*catalog.Relation{from, to} {
			fks := schema.ForeignKeysBetween(via, end)
			if len(fks) == 0 || !end.IsPrimaryKey(fks[0].RefAttrs) {
				return fmt.Errorf("datatotext: bridge %s has no foreign key onto the primary key of %s", r.Via, end.Name)
			}
		}
	} else if len(t.graph.JoinsBetween(r.From, r.To)) == 0 {
		return fmt.Errorf("datatotext: no join edge between %s and %s", r.From, r.To)
	}
	if r.Template == nil {
		return fmt.Errorf("datatotext: relationship %s→%s has no template", r.From, r.To)
	}
	if r.ListField == "" {
		r.ListField = "LIST"
	}
	t.rels = append(t.rels, r)
	return nil
}

// binding builds the template binding for one tuple of rel: attribute names
// uppercased, plus REL.ATTR qualified keys, values rendered in prose form.
func bindingFor(rel *catalog.Relation, tup storage.Tuple) templates.MapBinding {
	b := make(templates.MapBinding, 2*len(rel.Attributes))
	for i, a := range rel.Attributes {
		if i >= len(tup) || tup[i].IsNull() {
			continue
		}
		v := tup[i].Prose()
		b[strings.ToUpper(a.Name)] = v
		b[strings.ToUpper(rel.Name)+"."+strings.ToUpper(a.Name)] = v
	}
	return b
}

// headingValue returns the subject string of a tuple under the profile.
func (t *Translator) headingValue(rel *catalog.Relation, tup storage.Tuple) string {
	h := t.schema().HeadingFor(rel, t.opts.Profile)
	if h == nil {
		return ""
	}
	p := rel.AttrIndex(h.Name)
	if p < 0 || tup[p].IsNull() {
		return ""
	}
	return tup[p].Prose()
}

// entityKind guesses Person vs Thing from the relation concept.
func entityKind(rel *catalog.Relation) nlg.EntityKind {
	switch strings.ToLower(rel.Concept()) {
	case "actor", "director", "employee", "person", "author", "user", "manager", "student":
		return nlg.Person
	}
	return nlg.Thing
}

// attributeClauses renders the projection-edge templates of rel over tup as
// subject/predicate clauses, skipping templates whose fields are NULL.
func (t *Translator) attributeClauses(rel *catalog.Relation, tup storage.Tuple) []nlg.Clause {
	node := t.graph.Node(rel.Name)
	if node == nil {
		return nil
	}
	b := bindingFor(rel, tup)
	kind := entityKind(rel)
	// Render in annotation order (the designer's label sequence), falling
	// back to schema order for unannotated projections.
	projections := append([]*schemagraph.AttributeNode{}, node.Projections...)
	sort.SliceStable(projections, func(i, j int) bool {
		oi, oj := projections[i].Order, projections[j].Order
		if (oi == 0) != (oj == 0) {
			return oj == 0
		}
		return oi < oj
	})
	var out []nlg.Clause
	for _, p := range projections {
		if p.Template == nil || !p.Template.HasAllFields(b) {
			continue
		}
		if subj, pred, ok := p.Template.SplitSubject(b); ok {
			out = append(out, nlg.Clause{Subject: subj, Predicate: pred, Kind: kind})
			continue
		}
		// Template does not start with a field: treat the whole rendering
		// as a predicate-only clause.
		s, err := p.Template.Instantiate(b)
		if err == nil {
			out = append(out, nlg.Clause{Predicate: s, Kind: kind})
		}
	}
	return out
}

// tuplesOf is SELECT t.* FROM rel t, the query every narration step refines.
func tuplesOf(rel *catalog.Relation) *sqlparser.SelectStmt {
	return &sqlparser.SelectStmt{
		Items: []sqlparser.SelectItem{{Expr: col("t", "*")}},
		From:  []*sqlparser.TableRef{{Relation: rel.Name, Alias: "t"}},
		Limit: -1,
	}
}

// query hands one SELECT of the narration to the engine.
func (t *Translator) query(sel *sqlparser.SelectStmt) ([]storage.Tuple, error) {
	res, err := t.eng.Select(sel)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func col(alias, attr string) *sqlparser.ColumnRef {
	return &sqlparser.ColumnRef{Table: alias, Column: attr}
}

func equals(l, r sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.BinaryExpr{Op: sqlparser.OpEq, Left: l, Right: r}
}

// relatedTuples asks the engine for the To tuples related to the given From
// tuple under r: through the bridge, one To tuple per bridge row in To
// primary-key order (FROM via v, to t WHERE v.fk = <from key> AND t.pk =
// v.fk ORDER BY t.pk), or over a direct foreign key in either direction, in
// To order. r.OrderBy sorts them with NULLs last and ties left in that order;
// MaxListItems is the LIMIT. The bridged query says its order because a join
// promises none: its rows leave in whatever order the plan joins them.
func (t *Translator) relatedTuples(r Relationship, fromRel *catalog.Relation, fromTup storage.Tuple) ([]storage.Tuple, error) {
	schema := t.schema()
	toRel := schema.Relation(r.To)
	sel := tuplesOf(toRel)
	// fromKey compares alias.attrs with the From tuple's values of fromAttrs;
	// a NULL among them makes the comparison unknown, so it matches nothing.
	fromKey := func(alias string, attrs, fromAttrs []string) sqlparser.Expr {
		parts := make([]sqlparser.Expr, len(attrs))
		for i, a := range attrs {
			parts[i] = equals(col(alias, a), &sqlparser.Literal{Value: fromTup[fromRel.AttrIndex(fromAttrs[i])]})
		}
		return sqlparser.AndAll(parts)
	}
	if r.Via == "" {
		var alts []sqlparser.Expr
		for _, fk := range schema.ForeignKeysBetween(fromRel, toRel) {
			alts = append(alts, fromKey("t", fk.RefAttrs, fk.Attrs))
		}
		for _, fk := range schema.ForeignKeysBetween(toRel, fromRel) {
			alts = append(alts, fromKey("t", fk.Attrs, fk.RefAttrs))
		}
		if len(alts) == 0 {
			return nil, nil
		}
		sel.Where = alts[0]
		for _, alt := range alts[1:] {
			sel.Where = &sqlparser.BinaryExpr{Op: sqlparser.OpOr, Left: sel.Where, Right: alt}
		}
	} else {
		viaRel := schema.Relation(r.Via)
		fkFrom := schema.ForeignKeysBetween(viaRel, fromRel)[0]
		fkTo := schema.ForeignKeysBetween(viaRel, toRel)[0]
		sel.From = []*sqlparser.TableRef{{Relation: viaRel.Name, Alias: "v"}, sel.From[0]}
		conj := []sqlparser.Expr{fromKey("v", fkFrom.Attrs, fkFrom.RefAttrs)}
		for i, a := range fkTo.Attrs {
			conj = append(conj, equals(col("t", fkTo.RefAttrs[i]), col("v", a)))
		}
		sel.Where = sqlparser.AndAll(conj)
	}
	if r.OrderBy != "" {
		if toRel.AttrIndex(r.OrderBy) < 0 {
			return nil, fmt.Errorf("datatotext: order attribute %s.%s does not exist", r.To, r.OrderBy)
		}
		by := col("t", r.OrderBy)
		sel.OrderBy = []sqlparser.OrderItem{{Expr: &sqlparser.IsNullExpr{Inner: by}}, {Expr: by, Desc: r.Desc}}
	}
	if r.Via != "" {
		for _, k := range toRel.PrimaryKey {
			sel.OrderBy = append(sel.OrderBy, sqlparser.OrderItem{Expr: col("t", k)})
		}
	}
	if t.opts.MaxListItems > 0 {
		sel.Limit = t.opts.MaxListItems
	}
	return t.query(sel)
}

// DescribeEntity narrates one entity identified by rel.attr = val: its
// attribute clauses followed by one sentence per registered relationship —
// the paper's Woody Allen narrative.
func (t *Translator) DescribeEntity(rel, attr string, val value.Value) (string, error) {
	relMeta, tup, err := t.findTuple(rel, attr, val)
	if err != nil {
		return "", err
	}
	return t.describeTuple(relMeta, tup)
}

func (t *Translator) describeTuple(relMeta *catalog.Relation, tup storage.Tuple) (string, error) {
	clauses := t.attributeClauses(relMeta, tup)
	style := t.opts.Style
	if t.opts.Auto {
		style = nlg.ChooseRealization(clauses, t.opts.MaxCompactClauses)
	}
	var sentences []string
	if head := nlg.Realize(clauses, style); head != "" {
		sentences = append(sentences, head)
	}

	for _, r := range t.rels {
		if !strings.EqualFold(r.From, relMeta.Name) {
			continue
		}
		s, err := t.relationshipSentences(r, relMeta, tup, style)
		if err != nil {
			return "", err
		}
		sentences = append(sentences, s...)
	}
	return nlg.Paragraph(sentences...), nil
}

// relationshipSentences renders one relationship for one entity. Compact
// mode inlines the full list template; procedural mode lists only heading
// values and then emits per-tuple attribute sentences.
func (t *Translator) relationshipSentences(r Relationship, fromRel *catalog.Relation, fromTup storage.Tuple, style nlg.Realization) ([]string, error) {
	related, err := t.relatedTuples(r, fromRel, fromTup)
	if err != nil {
		return nil, err
	}
	if len(related) == 0 {
		return nil, nil
	}
	toRel := t.schema().Relation(r.To)
	headBinding := bindingFor(fromRel, fromTup)

	if style == nlg.Compact && r.List != nil {
		rows := make([]templates.Binding, len(related))
		for i, tup := range related {
			rows[i] = bindingFor(toRel, tup)
		}
		listText, err := r.List.Instantiate(rows)
		if err != nil {
			return nil, err
		}
		headBinding[r.ListField] = listText
		head, err := r.Template.Instantiate(headBinding)
		if err != nil {
			return nil, err
		}
		return []string{lexicon.Sentence(head)}, nil
	}

	// Procedural: heading-only enumeration, then per-tuple clauses.
	var headings []string
	for _, tup := range related {
		if h := t.headingValue(toRel, tup); h != "" {
			headings = append(headings, h)
		}
	}
	headBinding[r.ListField] = strings.Join(headings, ", ")
	head, err := r.Template.Instantiate(headBinding)
	if err != nil {
		return nil, err
	}
	sentences := []string{lexicon.Sentence(head)}
	var clauses []nlg.Clause
	for _, tup := range related {
		clauses = append(clauses, t.attributeClauses(toRel, tup)...)
	}
	if body := nlg.Realize(clauses, nlg.Procedural); body != "" {
		sentences = append(sentences, body)
	}
	return sentences, nil
}

// findTuple locates the first tuple of rel with attr = val.
func (t *Translator) findTuple(rel, attr string, val value.Value) (*catalog.Relation, storage.Tuple, error) {
	relMeta := t.schema().Relation(rel)
	if relMeta == nil {
		return nil, nil, fmt.Errorf("datatotext: unknown relation %q", rel)
	}
	if relMeta.AttrIndex(attr) < 0 {
		return nil, nil, fmt.Errorf("datatotext: unknown attribute %s.%s", rel, attr)
	}
	sel := tuplesOf(relMeta)
	sel.Where, sel.Limit = equals(col("t", attr), &sqlparser.Literal{Value: val}), 1
	rows, err := t.query(sel)
	if err != nil {
		return nil, nil, err
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("datatotext: no %s with %s = %s", rel, attr, val.String())
	}
	return relMeta, rows[0], nil
}

// DescribeEntitySplit narrates one entity through the paper's split pattern
// (§2.2, Ri → Rj1, Rj2): a head sentence introduces one related entity per
// given relationship, and each related entity's own clauses embed as
// relative clauses — "The movie M1 involves the director D1 who was born in
// Italy and the actor A1 who is Greek." The relationships are given as To
// relation names and resolved against the registered annotations with the
// direction reversed (the bridge connects both ways).
func (t *Translator) DescribeEntitySplit(rel, attr string, val value.Value, toRelations []string) (string, error) {
	relMeta, tup, err := t.findTuple(rel, attr, val)
	if err != nil {
		return "", err
	}
	headVal := t.headingValue(relMeta, tup)
	if headVal == "" {
		return "", fmt.Errorf("datatotext: entity of %s has no heading value", rel)
	}
	var mentions []string
	var subs []nlg.Clause
	for _, toName := range toRelations {
		toRel := t.schema().Relation(toName)
		if toRel == nil {
			return "", fmt.Errorf("datatotext: unknown relation %q", toName)
		}
		// Reuse a registered relationship in either direction to find the
		// bridge; otherwise use a direct FK.
		r := Relationship{From: relMeta.Name, To: toRel.Name}
		for _, cand := range t.rels {
			if strings.EqualFold(cand.From, toRel.Name) && strings.EqualFold(cand.To, relMeta.Name) {
				r.Via = cand.Via
			}
			if strings.EqualFold(cand.From, relMeta.Name) && strings.EqualFold(cand.To, toRel.Name) {
				r.Via = cand.Via
			}
		}
		related, err := t.relatedTuples(r, relMeta, tup)
		if err != nil {
			return "", err
		}
		if len(related) == 0 {
			continue
		}
		first := related[0]
		subjVal := t.headingValue(toRel, first)
		if subjVal == "" {
			continue
		}
		mentions = append(mentions, "the "+toRel.Concept()+" "+subjVal)
		clauses := nlg.FactorClauses(t.attributeClauses(toRel, first))
		if len(clauses) > 0 && clauses[0].Subject == subjVal {
			subs = append(subs, clauses[0])
		}
	}
	if len(mentions) == 0 {
		return "", fmt.Errorf("datatotext: %s %s has no related entities among %v", relMeta.Concept(), headVal, toRelations)
	}
	head := fmt.Sprintf("the %s %s involves %s", relMeta.Concept(), headVal, lexicon.JoinAnd(mentions))
	return nlg.MergeSplit(head, subs), nil
}

// DescribeRelation narrates up to limit tuples of one relation using its
// node and projection templates (limit 0 means the options default).
func (t *Translator) DescribeRelation(rel string, limit int) (string, error) {
	text, _, err := t.describeRelationCounted(rel, limit)
	return text, err
}

// describeRelationCounted additionally reports how many clauses the
// narrative contains, which DescribeDatabase uses for structural budgeting
// (counting periods would miscount abbreviations like "G. Loucas").
func (t *Translator) describeRelationCounted(rel string, limit int) (string, int, error) {
	relMeta := t.schema().Relation(rel)
	if relMeta == nil {
		return "", 0, fmt.Errorf("datatotext: unknown relation %q", rel)
	}
	if limit <= 0 {
		limit = t.opts.MaxTuplesPerRelation
	}
	all, err := t.query(tuplesOf(relMeta))
	if err != nil {
		return "", 0, err
	}
	tuples := t.rankTuples(relMeta, all)
	if len(tuples) > limit {
		tuples = tuples[:limit]
	}
	var clauses []nlg.Clause
	node := t.graph.Node(rel)
	kind := entityKind(relMeta)
	for _, tup := range tuples {
		b := bindingFor(relMeta, tup)
		if node != nil && node.Template != nil && node.Template.HasAllFields(b) {
			if subj, pred, ok := node.Template.SplitSubject(b); ok {
				clauses = append(clauses, nlg.Clause{Subject: subj, Predicate: pred, Kind: kind})
				continue
			}
			if s, err := node.Template.Instantiate(b); err == nil {
				clauses = append(clauses, nlg.Clause{Predicate: s, Kind: kind})
				continue
			}
		}
		// Fall back to the heading value alone.
		if h := t.headingValue(relMeta, tup); h != "" {
			clauses = append(clauses, nlg.Clause{
				Predicate: fmt.Sprintf("There is %s named %s", lexicon.WithArticle(relMeta.Concept()), h),
				Kind:      kind,
			})
		}
	}
	style := t.opts.Style
	if t.opts.Auto {
		style = nlg.ChooseRealization(clauses, t.opts.MaxCompactClauses)
	}
	return nlg.Realize(clauses, style), len(clauses), nil
}

// rankTuples orders tuples for enumeration: tuples with more non-NULL
// significant (weighted) attributes first, ties broken by heading value for
// determinism — a simple instance of the paper's tuple ranking.
func (t *Translator) rankTuples(rel *catalog.Relation, tuples []storage.Tuple) []storage.Tuple {
	type ranked struct {
		tup   storage.Tuple
		score float64
		key   string
	}
	rs := make([]ranked, len(tuples))
	for i, tup := range tuples {
		score := 0.0
		for j, a := range rel.Attributes {
			if !tup[j].IsNull() {
				score += t.schema().AttrWeightFor(rel, a, t.opts.Profile)
			}
		}
		rs[i] = ranked{tup: tup, score: score, key: t.headingValue(rel, tup)}
	}
	sort.SliceStable(rs, func(a, b int) bool {
		if rs[a].score != rs[b].score {
			return rs[a].score > rs[b].score
		}
		return rs[a].key < rs[b].key
	})
	out := make([]storage.Tuple, len(rs))
	for i := range rs {
		out[i] = rs[i].tup
	}
	return out
}

// DescribeDatabase narrates the whole database: a weight-ordered DFS from
// start visits each non-bridge relation and narrates its top tuples, also
// rendering entity relationships for the start relation's top tuples. The
// sentence budget (Options.MaxSentences) and weight floor
// (Options.MinWeight) implement the paper's structural size control.
func (t *Translator) DescribeDatabase(start string) (string, error) {
	skip := map[string]bool{}
	for _, n := range t.graph.Nodes() {
		w := t.schema().WeightFor(n.Rel, t.opts.Profile)
		if t.opts.MinWeight > 0 && w < t.opts.MinWeight {
			skip[strings.ToLower(n.Rel.Name)] = true
		}
	}
	tr, err := t.graph.DFS(start, skip)
	if err != nil {
		return "", err
	}
	budget := t.opts.MaxSentences
	var parts []string
	for _, node := range tr.Order {
		if node.Rel.Bridge {
			continue
		}
		text, clauses, err := t.describeRelationCounted(node.Rel.Name, 0)
		if err != nil {
			return "", err
		}
		if text == "" {
			continue
		}
		if budget > 0 && clauses > budget {
			break
		}
		if budget > 0 {
			budget -= clauses
		}
		parts = append(parts, text)
	}
	return nlg.Paragraph(parts...), nil
}
