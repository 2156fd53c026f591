package planner

import (
	"fmt"
	"strings"

	"repro/internal/lexicon"
)

// StepSummary is the externally consumable description of one plan step.
type StepSummary struct {
	Alias    string `json:"alias"`
	Relation string `json:"relation"`
	Access   string `json:"access"`
	// Join is "left" or "right" for an outer join step (see Step.Join).
	Join    string   `json:"join,omitempty"`
	JoinKey string   `json:"join_key,omitempty"`
	Filters []string `json:"filters,omitempty"`
	// TableRows is the relation cardinality at plan time; EstRows the
	// estimated cumulative output after this step; ActualRows the observed
	// count (-1 when the plan has not executed).
	TableRows  int     `json:"table_rows"`
	EstRows    float64 `json:"estimated_rows"`
	EstCost    float64 `json:"cost"`
	ActualRows int     `json:"actual_rows"`
	// HashSide, HashedRows and ScannedRows mirror the Step fields of the same
	// names: what an executed hash join hashed ("table" or "outer") and read.
	HashSide    string `json:"hash_side,omitempty"`
	HashedRows  int    `json:"hashed_rows,omitempty"`
	ScannedRows int    `json:"scanned_rows,omitempty"`
}

// ShapeSummary is the externally consumable description of one post-join
// shaping stage (aggregate, sort, top-k, limit).
type ShapeSummary struct {
	Kind string `json:"kind"`
	// Detail renders the stage's keys: group-by columns and aggregates, sort
	// keys, or the row bound.
	Detail     string  `json:"detail,omitempty"`
	K          int     `json:"k,omitempty"`
	EstRows    float64 `json:"estimated_rows"`
	ActualRows int     `json:"actual_rows"`
}

// Summary is the structured plan the serving layer exposes: the
// gh-star-search Plan shape (estimated rows/cost, indexes used,
// optimization tips) grown onto this engine.
type Summary struct {
	Fingerprint string        `json:"fingerprint"`
	EstRows     float64       `json:"estimated_rows"`
	EstCost     float64       `json:"estimated_cost"`
	ActualRows  int           `json:"actual_rows"`
	IndexesUsed []string      `json:"indexes_used,omitempty"`
	Steps       []StepSummary `json:"steps,omitempty"`
	// Shape lists the post-join shaping stages in execution order.
	Shape []ShapeSummary `json:"shape,omitempty"`
	// Residual lists predicates evaluated after all joins (subqueries,
	// outer correlations).
	Residual []string `json:"residual,omitempty"`
	// Tips suggests ways to make the query cheaper.
	Tips []string `json:"optimization_tips,omitempty"`
}

// Summarize snapshots the plan (including any actual row counts already
// observed) into an immutable Summary.
func (p *Plan) Summarize() *Summary {
	s := &Summary{
		Fingerprint: p.Fingerprint(),
		EstRows:     p.EstRows,
		EstCost:     p.EstCost,
		ActualRows:  p.ActualRows,
		Tips:        p.Tips(),
	}
	for _, st := range p.Steps {
		ss := StepSummary{
			Alias:      st.Input.Alias,
			Relation:   st.Input.Rel.Name,
			Access:     st.Access.String(),
			Join:       st.outerWord(),
			JoinKey:    st.JoinDesc,
			TableRows:  st.TableRows,
			EstRows:    st.EstRows,
			EstCost:    st.EstCost,
			ActualRows: st.ActualRows,

			HashSide:    st.HashSide,
			HashedRows:  st.HashedRows,
			ScannedRows: st.ScannedRows,
		}
		if st.Access == ScanPK {
			ss.JoinKey = "" // key probes are literal, not join-driven
		}
		for _, f := range st.SelfFilters {
			ss.Filters = append(ss.Filters, f.SQL())
		}
		for _, f := range st.PostJoinFilters {
			ss.Filters = append(ss.Filters, f.SQL())
		}
		if st.Access == ScanPK || st.Access == JoinPK {
			s.IndexesUsed = append(s.IndexesUsed, st.Input.Rel.Name+".<primary key>")
		}
		s.Steps = append(s.Steps, ss)
	}
	for _, e := range p.Post {
		s.Residual = append(s.Residual, e.SQL())
	}
	for _, sh := range p.Shape {
		s.Shape = append(s.Shape, ShapeSummary{
			Kind:       sh.Kind.String(),
			Detail:     sh.Detail(),
			K:          sh.K,
			EstRows:    sh.EstRows,
			ActualRows: sh.ActualRows,
		})
	}
	return s
}

// Detail renders the stage's keys the way explains print them.
func (sh *ShapeStep) Detail() string {
	switch sh.Kind {
	case ShapeParallelScan:
		return fmt.Sprintf("%d workers over contiguous ranges", sh.K)
	case ShapeZoneSkip:
		return fmt.Sprintf("zone maps over %d morsels of %d rows", sh.K, MorselRows)
	case ShapeAggregate, ShapeVecAggregate:
		var parts []string
		if len(sh.GroupBy) > 0 {
			parts = append(parts, "group by "+strings.Join(sh.GroupBy, ", "))
		}
		if len(sh.Aggregates) > 0 {
			parts = append(parts, strings.Join(sh.Aggregates, ", "))
		}
		if sh.Having != "" {
			parts = append(parts, "having "+sh.Having)
		}
		return strings.Join(parts, "; ")
	case ShapeSort:
		return "by " + strings.Join(sh.Keys, ", ")
	case ShapeTopK:
		return fmt.Sprintf("by %s, keeping %d", strings.Join(sh.Keys, ", "), sh.K)
	case ShapeLimit:
		return fmt.Sprintf("first %d", sh.K)
	default:
		return ""
	}
}

// Tips derives optimization suggestions from the plan: cartesian products
// and per-row residual subqueries — the §3.1 "why is this query expensive"
// feedback in actionable form.
func (p *Plan) Tips() []string {
	var tips []string
	for _, st := range p.Steps {
		if st.Access == JoinLoop {
			tips = append(tips, fmt.Sprintf(
				"%s joins without an equality condition (a cross product); adding one would shrink the intermediate result",
				st.Input.Alias))
		}
	}
	subqueries := 0
	for _, e := range p.Post {
		if hasSubquery(e) {
			subqueries++
		}
	}
	if subqueries > 0 {
		tips = append(tips, fmt.Sprintf(
			"%s evaluated per row after all joins; rewriting subqueries as joins can help",
			lexicon.CountNoun(subqueries, "residual predicate")))
	}
	return tips
}
