// Package explain produces the query feedback the paper motivates in §3.1:
// "when a query returns an empty answer, it is nice to know the parts of the
// query that are responsible for the failure. Similarly, when a query is
// expected to return a very large number of answers, it is useful to know
// the reasons."
//
// ExplainEmpty isolates minimal failing predicate sets by re-executing the
// query with subsets of its filters; ExplainLarge attributes result size to
// relation cardinalities and weak filters. Both render their findings in
// natural language through the query translator's predicate renderer.
package explain

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/lexicon"
	"repro/internal/planner"
	"repro/internal/querygraph"
	"repro/internal/querytotext"
	"repro/internal/sqlparser"
)

// Explainer diagnoses queries against one database.
type Explainer struct {
	ex *engine.Engine
	tr *querytotext.Translator
}

// New builds an explainer over the engine; tr supplies English renderings
// of predicates (it must be built over the same schema).
func New(ex *engine.Engine, tr *querytotext.Translator) *Explainer {
	return &Explainer{ex: ex, tr: tr}
}

// Culprit is one predicate (or minimal predicate set) responsible for an
// empty answer.
type Culprit struct {
	// Predicates holds the SQL of the failing set (singleton when one
	// predicate alone kills the result).
	Predicates []string
	// English renders the set.
	English string
	// Alone is true when the set is a single predicate.
	Alone bool
}

// EmptyDiagnosis is the outcome of ExplainEmpty.
type EmptyDiagnosis struct {
	// Empty reports whether the answer was actually empty.
	Empty bool
	// JoinsEmpty reports that the join structure alone (before any filter)
	// produces nothing.
	JoinsEmpty bool
	// Culprits lists minimal failing predicate sets, smallest first.
	Culprits []Culprit
	// Text is the natural-language summary.
	Text string
}

// ExplainEmpty diagnoses why a SELECT returns no rows, answering it first.
// Non-empty answers return a diagnosis with Empty=false.
func (e *Explainer) ExplainEmpty(sel *sqlparser.SelectStmt) (*EmptyDiagnosis, error) {
	res, err := e.ex.Select(sel)
	if err != nil {
		return nil, err
	}
	return e.ExplainEmptyAnswer(sel, res)
}

// ExplainEmptyAnswer is ExplainEmpty for a caller that already holds the
// query's answer res, which it does not run again.
func (e *Explainer) ExplainEmptyAnswer(sel *sqlparser.SelectStmt, res *engine.Result) (*EmptyDiagnosis, error) {
	if len(res.Rows) > 0 {
		return &EmptyDiagnosis{
			Empty: false,
			Text:  fmt.Sprintf("The query returns %s; nothing to diagnose.", lexicon.CountNoun(len(res.Rows), "row")),
		}, nil
	}

	g, err := querygraph.Build(sel, e.ex.Source().Schema())
	if err != nil {
		return nil, err
	}

	conjuncts := sqlparser.Conjuncts(sel.Where)
	var joins, filters []sqlparser.Expr
	for _, c := range conjuncts {
		if isJoinPredicate(c) {
			joins = append(joins, c)
		} else {
			filters = append(filters, c)
		}
	}

	countWith := func(preds []sqlparser.Expr) (int, error) {
		probe := sqlparser.CloneSelect(sel)
		probe.Where = sqlparser.AndAll(preds)
		probe.Having = nil
		probe.GroupBy = nil
		probe.Limit = 1
		// Project * to avoid aggregate-only select lists collapsing rows.
		probe.Items = []sqlparser.SelectItem{{Expr: &sqlparser.Star{}}}
		probe.Distinct = false
		probe.OrderBy = nil
		r, err := e.ex.Select(probe)
		if err != nil {
			return 0, err
		}
		return len(r.Rows), nil
	}

	diag := &EmptyDiagnosis{Empty: true}

	// Do the joins alone produce anything?
	n, err := countWith(joins)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		diag.JoinsEmpty = true
		diag.Text = "The query returns nothing: the joined relations share no matching rows even before any filter applies."
		return diag, nil
	}

	// Single-predicate culprits.
	for _, f := range filters {
		n, err := countWith(append(append([]sqlparser.Expr{}, joins...), f))
		if err != nil {
			return nil, err
		}
		if n == 0 {
			diag.Culprits = append(diag.Culprits, Culprit{
				Predicates: []string{f.SQL()},
				English:    e.tr.PredicateEnglish(f, g),
				Alone:      true,
			})
		}
	}
	// Pairwise culprits when no single filter is responsible.
	if len(diag.Culprits) == 0 {
		for i := 0; i < len(filters); i++ {
			for j := i + 1; j < len(filters); j++ {
				n, err := countWith(append(append([]sqlparser.Expr{}, joins...), filters[i], filters[j]))
				if err != nil {
					return nil, err
				}
				if n == 0 {
					diag.Culprits = append(diag.Culprits, Culprit{
						Predicates: []string{filters[i].SQL(), filters[j].SQL()},
						English: e.tr.PredicateEnglish(filters[i], g) + " together with " +
							e.tr.PredicateEnglish(filters[j], g),
					})
				}
			}
		}
	}

	switch {
	case len(diag.Culprits) == 0:
		diag.Text = "The query returns nothing, but no small subset of its conditions is individually responsible; the conditions fail only in combination."
	default:
		var parts []string
		for _, c := range diag.Culprits {
			parts = append(parts, c.English)
		}
		kind := "condition"
		if len(diag.Culprits) > 1 || !diag.Culprits[0].Alone {
			kind = "conditions"
		}
		diag.Text = fmt.Sprintf("The query returns nothing because no data satisfies the following %s: %s.",
			kind, strings.Join(parts, "; "))
	}
	return diag, nil
}

// isJoinPredicate reports column-to-column equality (a join edge).
func isJoinPredicate(e sqlparser.Expr) bool {
	b, ok := e.(*sqlparser.BinaryExpr)
	if !ok || b.Op != sqlparser.OpEq {
		return false
	}
	_, l := b.Left.(*sqlparser.ColumnRef)
	_, r := b.Right.(*sqlparser.ColumnRef)
	return l && r
}

// SizeContribution attributes result size to one relation.
type SizeContribution struct {
	Relation string
	Rows     int
	// Filtered is the fraction of the relation surviving its unary filters
	// (1.0 when unfiltered).
	Filtered float64
}

// LargeDiagnosis is the outcome of ExplainLarge.
type LargeDiagnosis struct {
	// Rows is the actual answer size.
	Rows int
	// Large reports whether Rows exceeded the threshold.
	Large bool
	// Contributions lists per-relation cardinalities, largest first.
	Contributions []SizeContribution
	// Text is the natural-language summary.
	Text string
}

// ExplainLarge explains why an answer is large (more rows than threshold),
// answering the query first: which relations contribute most rows and which
// filters barely restrict.
func (e *Explainer) ExplainLarge(sel *sqlparser.SelectStmt, threshold int) (*LargeDiagnosis, error) {
	res, plan, err := e.ex.SelectExplained(sel)
	if err != nil {
		return nil, err
	}
	return e.ExplainLargeAnswer(sel, res, plan, threshold)
}

// ExplainLargeAnswer is ExplainLarge for a caller that already holds the
// query's answer res and the plan that produced it: the query does not run
// again, and a one-step plan's scan already counted the rows its relation's
// filters keep.
func (e *Explainer) ExplainLargeAnswer(sel *sqlparser.SelectStmt, res *engine.Result, plan *planner.Plan, threshold int) (*LargeDiagnosis, error) {
	diag := &LargeDiagnosis{Rows: len(res.Rows), Large: len(res.Rows) > threshold}
	if !diag.Large {
		diag.Text = fmt.Sprintf("The query returns %s, within the threshold of %d.",
			lexicon.CountNoun(len(res.Rows), "row"), threshold)
		return diag, nil
	}

	schema := e.ex.Source().Schema()
	g, err := querygraph.Build(sel, schema)
	if err != nil {
		return nil, err
	}
	stats := e.ex.Source().Stats()

	// Per-box: relation size and unary-filter selectivity.
	for _, box := range g.Boxes {
		total := stats[strings.ToUpper(box.Relation)]
		if total == 0 {
			total = stats[box.Relation]
		}
		contrib := SizeContribution{Relation: box.Relation, Rows: total, Filtered: 1}
		if len(box.Where) > 0 && total > 0 {
			kept, ok := scanKept(sel, g, plan)
			var err error
			if !ok {
				kept, err = e.countFiltered(box)
			}
			if err == nil {
				contrib.Filtered = float64(kept) / float64(total)
			}
		}
		diag.Contributions = append(diag.Contributions, contrib)
	}
	sort.SliceStable(diag.Contributions, func(a, b int) bool {
		return diag.Contributions[a].Rows > diag.Contributions[b].Rows
	})

	// A relation is named by the plural of its catalog concept: "movies",
	// "cast entries".
	var reasons []string
	for _, c := range diag.Contributions {
		things := strings.ToLower(c.Relation)
		if rel := schema.Relation(c.Relation); rel != nil {
			things = lexicon.Pluralize(rel.Concept())
		}
		switch {
		case c.Filtered >= 0.999:
			reasons = append(reasons, fmt.Sprintf("%s contribute all of their %s unrestricted",
				things, lexicon.CountNoun(c.Rows, "row")))
		case c.Filtered >= 0.5:
			reasons = append(reasons, fmt.Sprintf("the filter on %s keeps %d%% of their %d rows",
				things, int(c.Filtered*100), c.Rows))
		}
	}
	diag.Text = fmt.Sprintf("The query returns %d rows (threshold %d).", diag.Rows, threshold)
	if len(reasons) > 0 {
		diag.Text += " " + lexicon.Sentence("This is because "+lexicon.JoinAnd(reasons))
		diag.Text += " Consider adding a more selective condition."
	}
	return diag, nil
}

// PlanDiagnosis is the outcome of ExplainPlan: the executed plan, its
// English narration, and actionable cost feedback — the §3.1 "why is this
// query expensive" answer the engine could not give before it had a planner.
type PlanDiagnosis struct {
	// Plan is the executed plan with estimated and actual row counts.
	Plan *planner.Summary
	// Text narrates the plan in natural language.
	Text string
	// Tips repeats the plan's optimization suggestions.
	Tips []string
}

// ExplainPlan executes the query and narrates how it ran and what it cost.
func (e *Explainer) ExplainPlan(sel *sqlparser.SelectStmt) (*PlanDiagnosis, error) {
	_, plan, err := e.ex.SelectExplained(sel)
	if err != nil {
		return nil, err
	}
	s := plan.Summarize()
	return &PlanDiagnosis{
		Plan: s,
		Text: querytotext.PlanEnglish(s),
		Tips: s.Tips,
	}, nil
}

// scanKept returns the rows the one box of g keeps under its filters as the
// answer's plan counted them: when the plan is one scan step with no residual
// filters and the box's filters are every conjunct of the WHERE clause, the
// step's ActualRows is exactly what countFiltered would count.
func scanKept(sel *sqlparser.SelectStmt, g *querygraph.Graph, plan *planner.Plan) (int, bool) {
	if plan == nil || len(plan.Steps) != 1 || len(plan.Post) != 0 || len(g.Boxes) != 1 {
		return 0, false
	}
	st := plan.Steps[0]
	if st.ActualRows < 0 || len(g.Boxes[0].Where) != len(sqlparser.Conjuncts(sel.Where)) {
		return 0, false
	}
	return st.ActualRows, true
}

// countFiltered counts rows of one box's relation surviving its unary
// filters.
func (e *Explainer) countFiltered(box *querygraph.Box) (int, error) {
	r, err := e.ex.Select(&sqlparser.SelectStmt{
		Items: []sqlparser.SelectItem{{Expr: &sqlparser.AggregateExpr{Func: sqlparser.AggCount}}},
		From:  []*sqlparser.TableRef{{Relation: box.Relation, Alias: box.Alias}},
		Where: sqlparser.AndAll(box.Where),
		Limit: -1,
	})
	if err != nil {
		return 0, err
	}
	return int(r.Rows[0][0].Int()), nil
}
