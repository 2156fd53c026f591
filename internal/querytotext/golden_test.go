package querytotext

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/querygraph"
	"repro/internal/sqlparser"
)

// goldenPath holds, per corpus query, its Translate and TranslateNaive
// text and its query graph's ASCII rendering.
const goldenPath = "testdata/translate.golden"

type goldenQuery struct {
	name string
	emp  bool // EMP/DEPT schema instead of the movie schema
	sql  string
}

// goldenCorpus is the paper corpus, the SELECT seeds of sqlparser's
// FuzzParse, the two /describe shapes of the bench's cold_talkback cycle, and
// nested-query links whose connector or operand order once narrated wrongly.
func goldenCorpus() []goldenQuery {
	var out []goldenQuery
	for _, label := range sqlparser.PaperQueryOrder {
		out = append(out, goldenQuery{name: label, emp: label == "Q0", sql: sqlparser.PaperQueries[label]})
	}
	out = append(out, goldenQuery{name: "Q6-verbatim", sql: sqlparser.PaperQ6Verbatim})
	for i, s := range []string{
		"select * from T",
		"select a.x, b.y from A a join B b on a.id = b.id where a.x > 3 order by b.y desc limit 5",
		"select count(distinct x) from T group by y having count(*) > 1",
		"select * from T where x like 'a%_b'",
		"select case when x > 0 then 'p' else 'n' end from T",
		"select * from T where exists (select 1 from U where U.id = T.id)",
		"select * from T where x <= all (select y from U)",
		"select -1 + 2 * (3 - 4) / 5 % 6",
		"select (1 - 2) * 3, 1 / (r.id - 20), -(1 + 2), 2 * (3 / 2), 1 - (2 - 3) from R r",
		"select * from T where (a = b) = c and not (exists (select 1 from U)) and (x or y) and (p and q)",
	} {
		out = append(out, goldenQuery{name: fmt.Sprintf("fuzz-seed-%d", i), sql: s})
	}
	for _, q := range []goldenQuery{
		{name: "describe-directed", sql: "select m.title from MOVIES m, DIRECTED d where m.id = d.mid and d.did = 17 and m.year > 1984 and m.id > 120"},
		{name: "describe-cast", sql: "select a.name from ACTOR a, CAST c where a.id = c.aid and c.mid = 311 and a.id <> 42"},
		{name: "link-literal-NQ", sql: "select m.title from MOVIES m where 'UNQUOTED' = (select max(m2.title) from MOVIES m2)"},
		{name: "link-in", sql: "select m.title from MOVIES m where m.id in (select c.mid from CAST c)"},
		{name: "link-not-in", sql: "select m.title from MOVIES m where m.id not in (select c.mid from CAST c)"},
		{name: "link-scalar-left", sql: "select m.title from MOVIES m where (select count(*) from CAST c where c.mid = m.id) < 3"},
		{name: "link-scalar-right", sql: "select m.title from MOVIES m where 3 > (select count(*) from CAST c where c.mid = m.id)"},
	} {
		out = append(out, q)
	}
	return out
}

// renderGolden writes one corpus query's block: its Translate text (or
// error), its TranslateNaive text and its query graph.
func renderGolden(b *strings.Builder, q goldenQuery) {
	fmt.Fprintf(b, "=== %s\n%s\n", q.name, strings.Join(strings.Fields(q.sql), " "))
	var schema *catalog.Schema
	var tr *Translator
	if q.emp {
		schema, tr = dataset.EmpDeptSchema(), empTranslator()
	} else {
		schema, tr = dataset.MovieSchema(), movieTranslator(false)
	}
	sel, err := sqlparser.ParseSelect(q.sql)
	if err != nil {
		fmt.Fprintf(b, "parse error: %v\n", err)
		return
	}
	if out, err := tr.Translate(sel); err != nil {
		fmt.Fprintf(b, "translate error: %v\n", err)
	} else {
		fmt.Fprintf(b, "translate: %s\n", out.Text)
	}
	g, err := querygraph.Build(sel, schema)
	if err != nil {
		fmt.Fprintf(b, "graph error: %v\n", err)
		return
	}
	fmt.Fprintf(b, "naive: %s\n%s", tr.TranslateNaive(sel, g), g.ASCII())
}

// TestTranslateGolden holds Translate, TranslateNaive and the query graph's
// ASCII rendering to the golden file, block by block.
func TestTranslateGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, blk := range strings.Split(string(raw), "=== ")[1:] {
		name, _, _ := strings.Cut(blk, "\n")
		want[name] = "=== " + blk
	}
	corpus := goldenCorpus()
	if len(want) != len(corpus) {
		t.Errorf("golden file holds %d blocks, corpus has %d queries", len(want), len(corpus))
	}
	for _, q := range corpus {
		var b strings.Builder
		renderGolden(&b, q)
		if got := b.String(); got != want[q.name] {
			t.Errorf("%s:\n--- got\n%s--- want\n%s", q.name, got, want[q.name])
		}
	}
}
