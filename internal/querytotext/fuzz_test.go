package querytotext

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/querygraph"
	"repro/internal/sqlparser"
)

// FuzzQueryGraph holds the query graph to the statement it was built from.
// For any input that parses as a SELECT, building its graph and translating
// it never panic; every compartment, join edge, link and correlation holds
// one of its statement's own conjunct nodes; and the graph of the statement
// renders exactly like the graph of its printed SQL parsed back. Seeded with
// the golden corpus; run the harness with:
//
//	go test -run '^$' -fuzz FuzzQueryGraph ./internal/querytotext
func FuzzQueryGraph(f *testing.F) {
	for _, q := range goldenCorpus() {
		f.Add(q.sql)
	}
	schema := dataset.MovieSchema()
	tr := movieTranslator(false)
	f.Fuzz(func(t *testing.T, src string) {
		sel, err := sqlparser.ParseSelect(src)
		if err != nil {
			return
		}
		tr.Translate(sel)
		g, err := querygraph.Build(sel, schema)
		if err != nil {
			return
		}
		tr.TranslateNaive(sel, g)
		checkOwnNodes(t, g)
		again, err := sqlparser.ParseSelect(sel.SQL())
		if err != nil {
			t.Fatalf("printed SQL does not parse: %q: %v", sel.SQL(), err)
		}
		g2, err := querygraph.Build(again, schema)
		if err != nil {
			t.Fatalf("graph of the printed SQL fails: %v", err)
		}
		if got, want := g2.ASCII(), g.ASCII(); got != want {
			t.Fatalf("graph of the printed SQL renders differently\ninput:   %q\nprinted: %q\n--- statement\n%s--- printed\n%s", src, sel.SQL(), want, got)
		}
	})
}

// checkOwnNodes asserts that every node the graph (and each nested graph)
// files is a conjunct of its own statement: WHERE, explicit-join ON or
// HAVING, compared by pointer.
func checkOwnNodes(t *testing.T, g *querygraph.Graph) {
	t.Helper()
	own := map[sqlparser.Expr]bool{}
	conjuncts := sqlparser.Conjuncts(g.Stmt.Where)
	for _, from := range g.Stmt.From {
		for j := from.Join; j != nil; j = j.Right.Join {
			conjuncts = append(conjuncts, sqlparser.Conjuncts(j.On)...)
		}
	}
	conjuncts = append(conjuncts, sqlparser.Conjuncts(g.Stmt.Having)...)
	for _, c := range conjuncts {
		own[c] = true
	}
	check := func(what string, e sqlparser.Expr) {
		if !own[e] {
			t.Fatalf("%s %q is not a conjunct of %q", what, e.SQL(), g.Stmt.SQL())
		}
	}
	for _, b := range g.Boxes {
		for _, w := range b.Where {
			check("WHERE", w)
		}
		for _, h := range b.Having {
			check("HAVING", h)
		}
	}
	for _, j := range g.Joins {
		check("join condition", j.Cond)
	}
	for _, n := range g.Nested {
		check("link", n.Link)
		inner := map[sqlparser.Expr]bool{}
		for _, c := range append(sqlparser.Conjuncts(n.Graph.Stmt.Where), sqlparser.Conjuncts(n.Graph.Stmt.Having)...) {
			inner[c] = true
		}
		for _, c := range n.Correlations {
			if !inner[c] {
				t.Fatalf("correlation %q is not a conjunct of %s", c.SQL(), n.Label)
			}
		}
		checkOwnNodes(t, n.Graph)
	}
}
