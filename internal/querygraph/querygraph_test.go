package querygraph

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sqlparser"
)

func buildQ(t *testing.T, label string) *Graph {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sqlparser.PaperQueries[label])
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	schema := dataset.MovieSchema()
	if label == "Q0" {
		schema = dataset.EmpDeptSchema()
	}
	g, err := Build(sel, schema)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return g
}

// compartment returns the entries g.ASCII() writes under <<tag>> in the box
// of alias.
func compartment(g *Graph, alias, tag string) []string {
	var out []string
	inBox, inTag := false, false
	for _, line := range strings.Split(g.ASCII(), "\n") {
		l := strings.Trim(line, "| ")
		switch {
		case strings.HasPrefix(l, "+-"):
			inTag = false
		case strings.HasPrefix(l, "<<alias>> "):
			inBox, inTag = l == "<<alias>> "+alias, false
		case strings.HasPrefix(l, "<<"):
			inTag = inBox && l == "<<"+tag+">>"
		case inTag:
			out = append(out, l)
		}
	}
	return out
}

// TestQ1Figure3 checks the structure of Fig. 3: three boxes in a path, FK
// joins, the actor-name constraint in the ACTOR box, title in MOVIES.
func TestQ1Figure3(t *testing.T) {
	g := buildQ(t, "Q1")
	if len(g.Boxes) != 3 {
		t.Fatalf("boxes = %d", len(g.Boxes))
	}
	if g.Boxes[0].Alias != "m" || g.Boxes[0].Relation != "MOVIES" {
		t.Errorf("box0 = %+v", g.Boxes[0])
	}
	if sel := compartment(g, "m", "SELECT"); len(sel) != 1 || sel[0] != "m.MOVIES.title" {
		t.Errorf("MOVIES select = %q", sel)
	}
	aBox := g.Boxes[2]
	if len(aBox.Where) != 1 || aBox.Where[0].SQL() != "a.name = 'Brad Pitt'" {
		t.Errorf("ACTOR where = %v", aBox.Where)
	}
	if len(g.Joins) != 2 || !g.AllJoinsFK() {
		t.Errorf("joins = %+v", g.Joins)
	}
	if !g.IsPath() {
		t.Error("Q1 must be a path")
	}
	if g.HasCycle() || len(g.MultiInstanceRelations()) != 0 || g.HasGrouping() {
		t.Error("Q1 extra structure detected")
	}
}

// TestQ2Figure4 checks Fig. 4: six boxes, five FK joins, a tree that is not
// a path (MOVIES has degree 3).
func TestQ2Figure4(t *testing.T) {
	g := buildQ(t, "Q2")
	if len(g.Boxes) != 6 {
		t.Fatalf("boxes = %d", len(g.Boxes))
	}
	if len(g.Joins) != 5 || !g.AllJoinsFK() {
		t.Fatalf("joins = %+v", g.Joins)
	}
	if g.IsPath() {
		t.Error("Q2 is not a path")
	}
	if !g.IsConnectedAcyclic() {
		t.Error("Q2 must be a connected acyclic subgraph")
	}
}

// TestQ3Figure5 checks Fig. 5: repeated CAST/ACTOR instances and the non-FK
// comparison a1.id > a2.id.
func TestQ3Figure5(t *testing.T) {
	g := buildQ(t, "Q3")
	if len(g.Boxes) != 5 {
		t.Fatalf("boxes = %d", len(g.Boxes))
	}
	multi := g.MultiInstanceRelations()
	if len(multi) != 2 || multi[0] != "ACTOR" || multi[1] != "CAST" {
		t.Errorf("multi-instance = %v", multi)
	}
	if g.AllJoinsFK() {
		t.Error("a1.id > a2.id must be a non-FK edge")
	}
	var nonFK int
	for _, j := range g.Joins {
		if !j.FK {
			nonFK++
			if j.Equi {
				t.Errorf("inequality marked equi: %+v", j)
			}
		}
	}
	if nonFK != 1 {
		t.Errorf("non-FK edges = %d", nonFK)
	}
	if g.HasCycle() {
		// a1.id > a2.id closes a cycle M-C1-A1 > A2-C2-M; actually the
		// comparison edge does close a cycle through the path.
		t.Log("Q3 comparison edge closes a cycle through the shared movie; acceptable")
	}
}

// TestQ4Figure6 checks Fig. 6: two boxes with BOTH an FK join and the
// non-FK join c.role = m.title forming a two-edge cycle.
func TestQ4Figure6(t *testing.T) {
	g := buildQ(t, "Q4")
	if len(g.Boxes) != 2 {
		t.Fatalf("boxes = %d", len(g.Boxes))
	}
	if len(g.Joins) != 2 {
		t.Fatalf("joins = %+v", g.Joins)
	}
	if !g.HasCycle() {
		t.Error("Q4 must contain a cycle")
	}
	var fk, nonFK int
	for _, j := range g.Joins {
		if j.FK {
			fk++
		} else {
			nonFK++
		}
	}
	if fk != 1 || nonFK != 1 {
		t.Errorf("edge kinds: fk=%d nonFK=%d", fk, nonFK)
	}
}

// TestQ5NestedBlocks checks that Q5 produces a two-level nested chain.
func TestQ5NestedBlocks(t *testing.T) {
	g := buildQ(t, "Q5")
	if len(g.Nested) != 1 {
		t.Fatalf("nested = %d", len(g.Nested))
	}
	n1 := g.Nested[0]
	if n1.Conn != ConnIn || n1.Label != "NQ1" {
		t.Errorf("block1 = %+v", n1)
	}
	if out := g.ASCII(); !strings.Contains(out, "NQ1: attached under WHERE via m.id IN NQ1\n") {
		t.Errorf("link not rendered:\n%s", out)
	}
	if len(n1.Graph.Nested) != 1 || n1.Graph.Nested[0].Label != "NQ2" {
		t.Fatalf("inner nesting = %+v", n1.Graph.Nested)
	}
}

// TestQ6DoubleNotExists checks the division shape: NOT EXISTS with inner
// NOT EXISTS and correlations recorded.
func TestQ6DoubleNotExists(t *testing.T) {
	g := buildQ(t, "Q6")
	if len(g.Nested) != 1 || g.Nested[0].Conn != ConnNotExists {
		t.Fatalf("outer block = %+v", g.Nested)
	}
	inner := g.Nested[0].Graph
	if len(inner.Nested) != 1 || inner.Nested[0].Conn != ConnNotExists {
		t.Fatalf("inner block = %+v", inner.Nested)
	}
	// The innermost query correlates on both g2.mid = m.id and
	// g2.genre = g1.genre.
	innermost := inner.Nested[0]
	if len(innermost.Correlations) == 0 {
		t.Error("no correlations recorded on innermost block")
	}
}

// TestCorrelationsReachEveryEnclosingBlock: a subquery correlates with any
// block around it, not only its parent — Q6's innermost block with the
// outermost query's m as well as with g1 — while a reference no block
// declares is no correlation.
func TestCorrelationsReachEveryEnclosingBlock(t *testing.T) {
	innermost := buildQ(t, "Q6").Nested[0].Graph.Nested[0]
	var got []string
	for _, c := range innermost.Correlations {
		got = append(got, c.SQL())
	}
	if want := "g2.mid = m.id; g2.genre = g1.genre"; strings.Join(got, "; ") != want {
		t.Errorf("innermost correlations = %q, want %q", strings.Join(got, "; "), want)
	}

	sel, err := sqlparser.ParseSelect(`select a.title from MOVIES a where not exists (
		select * from GENRE g1 where not exists (select * from GENRE a2 where a2.mid = m.id))`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(sel, dataset.MovieSchema())
	if err != nil {
		t.Fatal(err)
	}
	if c := g.Nested[0].Graph.Nested[0].Correlations; len(c) != 0 {
		t.Errorf("undeclared m counted as a correlation: %v", c)
	}
}

// TestQ7Figure7 checks Fig. 7: group-by note on the MOVIES box, count(*) in
// the CAST box, and the HAVING-attached scalar block NQ1 over GENRE.
func TestQ7Figure7(t *testing.T) {
	g := buildQ(t, "Q7")
	if len(g.Boxes) != 2 {
		t.Fatalf("boxes = %d", len(g.Boxes))
	}
	if gb := compartment(g, "m", "GROUP BY"); len(gb) != 2 || gb[0] != "m.MOVIES.id" {
		t.Errorf("group-by note = %q", gb)
	}
	if sel := compartment(g, "c", "SELECT"); len(sel) != 1 || sel[0] != "COUNT(*)" {
		t.Errorf("count(*) not in CAST box: %q", sel)
	}
	if len(g.Nested) != 1 {
		t.Fatalf("nested = %d", len(g.Nested))
	}
	blk := g.Nested[0]
	if !blk.FromHaving || blk.Conn != ConnScalar {
		t.Errorf("having block = %+v", blk)
	}
	if out := g.ASCII(); !strings.Contains(out, "NQ1: attached under HAVING via 1 < NQ1\n") {
		t.Errorf("link not rendered:\n%s", out)
	}
	if len(blk.Graph.Boxes) != 1 || blk.Graph.Boxes[0].Relation != "GENRE" {
		t.Errorf("nested box = %+v", blk.Graph.Boxes)
	}
	if len(blk.Correlations) == 0 {
		t.Error("no correlation recorded for g.mid = m.id")
	}
}

func TestQ8Q9Structure(t *testing.T) {
	g8 := buildQ(t, "Q8")
	if !g8.HasGrouping() {
		t.Error("Q8 must group")
	}
	g9 := buildQ(t, "Q9")
	if len(g9.Nested) != 1 || g9.Nested[0].Conn != ConnAll {
		t.Fatalf("Q9 block = %+v", g9.Nested)
	}
	if out := g9.ASCII(); !strings.Contains(out, "NQ1: attached under WHERE via m.year <= ALL NQ1\n") {
		t.Errorf("Q9 link not rendered:\n%s", out)
	}
	if len(g9.Nested[0].Graph.MultiInstanceRelations()) != 1 {
		t.Errorf("Q9 subquery multi-instance = %v", g9.Nested[0].Graph.MultiInstanceRelations())
	}
}

func TestQ0EmpDept(t *testing.T) {
	g := buildQ(t, "Q0")
	if len(g.Boxes) != 3 {
		t.Fatalf("boxes = %d", len(g.Boxes))
	}
	multi := g.MultiInstanceRelations()
	if len(multi) != 1 || multi[0] != "EMP" {
		t.Errorf("multi-instance = %v", multi)
	}
	if g.AllJoinsFK() {
		t.Error("e1.sal > e2.sal must be non-FK")
	}
}

func TestASCIIRender(t *testing.T) {
	g := buildQ(t, "Q1")
	out := g.ASCII()
	for _, want := range []string{
		"<<FROM>> MOVIES", "<<alias>> m", "<<SELECT>>",
		"m.MOVIES.title", "a.name = 'Brad Pitt'",
		"--[m.id = c.mid]--", "(FK)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII missing %q:\n%s", want, out)
		}
	}
}

func TestASCIINestedRender(t *testing.T) {
	g := buildQ(t, "Q7")
	out := g.ASCII()
	for _, want := range []string{
		"NQ1: attached under HAVING", "correlation: g.mid = m.id",
		"<<GROUP BY>>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII missing %q:\n%s", want, out)
		}
	}
}

func TestDOTRender(t *testing.T) {
	for _, label := range []string{"Q1", "Q3", "Q4", "Q7"} {
		g := buildQ(t, label)
		dot := g.DOT()
		if !strings.HasPrefix(dot, "digraph query {") || !strings.HasSuffix(dot, "}\n") {
			t.Errorf("%s: malformed DOT", label)
		}
		if !strings.Contains(dot, "shape=record") {
			t.Errorf("%s: no record nodes", label)
		}
	}
	g7 := buildQ(t, "Q7")
	if !strings.Contains(g7.DOT(), "subgraph cluster_") {
		t.Error("Q7 DOT missing nested cluster")
	}
	g3 := buildQ(t, "Q3")
	if !strings.Contains(g3.DOT(), "style=dashed") {
		t.Error("Q3 DOT missing dashed non-FK edge")
	}
}

func TestBuildWithoutSchema(t *testing.T) {
	sel, _ := sqlparser.ParseSelect(sqlparser.PaperQueries["Q1"])
	g, err := Build(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.AllJoinsFK() {
		t.Error("without a schema joins cannot be FK-classified")
	}
}

func TestDuplicateAlias(t *testing.T) {
	sel, _ := sqlparser.ParseSelect("select m.title from MOVIES m, CAST m where 1 = 1")
	if _, err := Build(sel, dataset.MovieSchema()); err == nil {
		t.Error("duplicate alias accepted")
	}
}

func TestUnqualifiedColumnResolution(t *testing.T) {
	sel, _ := sqlparser.ParseSelect("select title from MOVIES m where year = 2005")
	g, err := Build(sel, dataset.MovieSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Boxes[0].Select) != 1 {
		t.Errorf("unqualified select not filed: %+v", g.Boxes[0])
	}
	if len(g.Boxes[0].Where) != 1 {
		t.Errorf("unqualified where not filed: %+v", g.Boxes[0])
	}
}

func TestOrderByNote(t *testing.T) {
	sel, _ := sqlparser.ParseSelect("select m.title from MOVIES m order by m.year desc")
	g, err := Build(sel, dataset.MovieSchema())
	if err != nil {
		t.Fatal(err)
	}
	if ob := compartment(g, "m", "ORDER BY"); len(ob) != 1 || ob[0] != "m.MOVIES.year" {
		t.Errorf("order-by note = %q", ob)
	}
}

// buildSQL builds the movie-schema graph of one SELECT.
func buildSQL(t *testing.T, src string) *Graph {
	t.Helper()
	sel, err := sqlparser.ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(sel, dataset.MovieSchema())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLinkKeepsLiterals: the link names the block by its label without
// touching the other operand, even a literal holding "NQ".
func TestLinkKeepsLiterals(t *testing.T) {
	g := buildSQL(t, "select m.title from MOVIES m where 'UNQUOTED' = (select max(m2.title) from MOVIES m2)")
	if out := g.ASCII(); !strings.Contains(out, "NQ1: attached under WHERE via 'UNQUOTED' = NQ1\n") {
		t.Errorf("link not rendered:\n%s", out)
	}
}

// TestLinkNamesMembership: IN and NOT IN links keep their connector.
func TestLinkNamesMembership(t *testing.T) {
	for sql, want := range map[string]string{
		"select m.title from MOVIES m where m.id in (select c.mid from CAST c)":     "via m.id IN NQ1\n",
		"select m.title from MOVIES m where m.id not in (select c.mid from CAST c)": "via m.id NOT IN NQ1\n",
	} {
		if out := buildSQL(t, sql).ASCII(); !strings.Contains(out, want) {
			t.Errorf("%s: want %q in\n%s", sql, want, out)
		}
	}
}

// TestLinkScalarKeepsSide: a scalar subquery on the left of a comparison
// stays on the left.
func TestLinkScalarKeepsSide(t *testing.T) {
	for sql, want := range map[string]string{
		"select m.title from MOVIES m where (select count(*) from CAST c where c.mid = m.id) < 3": "via NQ1 < 3\n",
		"select m.title from MOVIES m where 3 > (select count(*) from CAST c where c.mid = m.id)": "via 3 > NQ1\n",
	} {
		if out := buildSQL(t, sql).ASCII(); !strings.Contains(out, want) {
			t.Errorf("%s: want %q in\n%s", sql, want, out)
		}
	}
}

func TestConnectorString(t *testing.T) {
	cases := map[Connector]string{
		ConnIn: "IN", ConnNotIn: "NOT IN", ConnExists: "EXISTS",
		ConnNotExists: "NOT EXISTS", ConnAll: "ALL", ConnAny: "ANY",
		ConnScalar: "scalar",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestGraphQueriesAllPaperCorpus(t *testing.T) {
	for _, label := range sqlparser.PaperQueryOrder {
		g := buildQ(t, label)
		if len(g.Boxes) == 0 {
			t.Errorf("%s: no boxes", label)
		}
		if out := g.ASCII(); out == "" {
			t.Errorf("%s: empty ASCII render", label)
		}
	}
}

func BenchmarkBuildQ1(b *testing.B) {
	sel, _ := sqlparser.ParseSelect(sqlparser.PaperQueries["Q1"])
	schema := dataset.MovieSchema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(sel, schema); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildQ7(b *testing.B) {
	sel, _ := sqlparser.ParseSelect(sqlparser.PaperQueries["Q7"])
	schema := dataset.MovieSchema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(sel, schema); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRenderASCII(b *testing.B) {
	sel, _ := sqlparser.ParseSelect(sqlparser.PaperQueries["Q7"])
	g, err := Build(sel, dataset.MovieSchema())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.ASCII()
	}
}
