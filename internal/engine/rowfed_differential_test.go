package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/value"
)

// This file holds grouped queries that the fused pipeline's dialect excludes
// by construction to the interpreter: expression group keys, expression and
// DISTINCT-expression aggregate arguments, SUM/AVG over mixed integer and
// float values, a SUM over text, outer joins, and subqueries in HAVING,
// select items, ORDER BY keys and aggregate arguments, all over aggDiffDB's
// NULL pockets. Each template must plan the generic aggregate step (`agg`),
// never `vagg`, so none drifts into the fused pipeline unnoticed.

// rowFedFroms are the row-fed grammar's FROM clauses. alias names the second
// relation, whose columns keys and aggregates may also read ("" for MOVIES
// alone).
var rowFedFroms = []struct{ from, alias string }{
	{"MOVIES m, CAST c where m.id = c.mid", "c"},
	{"MOVIES m left join GENRE g on g.mid = m.id", "g"},
	{"GENRE g right join MOVIES m on g.mid = m.id", "g"},
	{"MOVIES m left join CAST c on c.mid = m.id", "c"},
	{"MOVIES m", ""},
}

// rowFedKeys are group keys by the alias they read: expressions, a CASE
// without ELSE (NULL for NULL years), and plain columns.
var rowFedKeys = map[string][]string{
	"m": {
		"m.year / 10",
		"case when m.year < 1975 then 'old' when m.year >= 1975 then 'new' end",
		"m.id % 5",
		"m.year",
	},
	"c": {"c.role", "c.aid % 3"},
	"g": {"g.genre", "g.genre = 'drama'"},
}

// rowFedArgs are aggregates no typed accumulator takes, so the first
// aggregate of every template comes from here: expression and
// DISTINCT-expression arguments, mixed integer/float sums, MIN/MAX over
// integers and floats that tie (the first seen wins), per-row subqueries, a
// text SUM (a value error), and an argument that fails to evaluate on some
// rows, beside a value error on others (the evaluation error wins).
var rowFedArgs = []string{
	"sum(m.year / 10)",
	"avg(m.year + m.id)",
	"count(distinct m.year / 5)",
	"sum(distinct m.id % 4)",
	"avg(distinct m.year - 1900)",
	"min(m.year - m.id)",
	"max(case when m.year is null then 'none' else m.title end)",
	"sum(case when m.id % 2 = 0 then m.year else m.year * 0.5 end)",
	"avg(m.year * 1.5)",
	"max(case when m.id % 2 = 0 then m.year else m.year * 1.0 end)",
	"min(case when m.id % 3 = 0 then m.year * 1.0 else m.year end)",
	"sum((select count(*) from GENRE g2 where g2.mid = m.id))",
	"count(distinct (select min(g2.genre) from GENRE g2 where g2.mid = m.id))",
	"sum(m.title)",
	"sum(case when m.id % 3 = 0 then m.title else m.year / (m.id % 7) end)",
}

// rowFedPlain are aggregates the fused pipeline could take on their own.
var rowFedPlain = map[string][]string{
	"m": {"count(*)", "count(m.year)", "min(m.title)", "max(m.year)"},
	"c": {"count(c.role)", "min(c.role)", "count(distinct c.aid)"},
	"g": {"count(g.genre)", "max(g.genre)", "count(distinct g.genre)"},
}

// keySubquery is a subquery over a copy of key's relation that correlates
// to the group through key alone, so its answer is the same whichever row
// represents the group.
func keySubquery(key, alias, what string) string {
	table := map[string]string{"m": "MOVIES", "c": "CAST", "g": "GENRE"}[alias]
	inner := strings.ReplaceAll(key, alias+".", alias+"2.")
	return fmt.Sprintf("(select %s from %s %s2 where (%s) = (%s))", what, table, alias, inner, key)
}

// rowFedTemplate draws one grouped query outside the fused dialect, each
// choice from pick (a value in [0, n)).
func rowFedTemplate(pick func(n int) int) string {
	f := rowFedFroms[pick(len(rowFedFroms))]
	aliases := []string{"m"}
	if f.alias != "" {
		aliases = append(aliases, f.alias)
	}
	keyAlias := aliases[pick(len(aliases))]
	key := rowFedKeys[keyAlias][pick(len(rowFedKeys[keyAlias]))]
	first := rowFedArgs[pick(len(rowFedArgs))]
	items := []string{key, first}
	for n := pick(3); n > 0; n-- {
		a := aliases[pick(len(aliases))]
		if pick(2) == 0 {
			items = append(items, rowFedArgs[pick(len(rowFedArgs))])
		} else {
			items = append(items, rowFedPlain[a][pick(len(rowFedPlain[a]))])
		}
	}
	if pick(4) == 0 {
		items = append(items, keySubquery(key, keyAlias, "count(*)"))
	}
	q := fmt.Sprintf("select %s from %s group by %s", strings.Join(items, ", "), f.from, key)
	switch pick(6) {
	case 1:
		q += " having count(*) > 1"
	case 2:
		q += " having " + first + " is not null"
	case 3:
		q += " having exists " + keySubquery(key, keyAlias, "*")
	case 4:
		q += " having count(*) >= (select count(*) from GENRE g2 where g2.genre = 'noir') / 40"
	}
	switch pick(5) {
	case 1:
		q += " order by 1"
	case 2:
		q += " order by 2 desc, 1"
	case 3:
		q += " order by " + keySubquery(key, keyAlias, "count(*)") + " desc, 1"
	case 4:
		q += fmt.Sprintf(" order by 1 limit %d", 1+pick(4))
	}
	return q
}

// requireRowFed fails unless sql plans the generic aggregate step and not
// the fused one.
func requireRowFed(t *testing.T, ex *Engine, sql string) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %s: %v", sql, err)
	}
	plan, err := ex.Plan(sel)
	if err != nil {
		t.Fatalf("%s\nplan: %v", sql, err)
	}
	if fp := plan.Fingerprint(); !strings.Contains(fp, ">agg{") || strings.Contains(fp, "vagg") {
		t.Fatalf("%s\nplans %s, want the row-fed agg step", sql, fp)
	}
}

// rowFedTwin is sql with `count(1) >= 0` ANDed onto its HAVING: the same
// answer, but a COUNT over a literal is no typed accumulator's, so the twin
// always runs on the row feeder. ok=false means sql is not a grouped query,
// which a HAVING would make one.
func rowFedTwin(t *testing.T, sql string) (twin string, ok bool) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %s: %v", sql, err)
	}
	if !sel.Grouped() {
		return "", false
	}
	var always sqlparser.Expr = &sqlparser.BinaryExpr{
		Op:    sqlparser.OpGe,
		Left:  &sqlparser.AggregateExpr{Func: sqlparser.AggCount, Arg: &sqlparser.Literal{Value: value.NewInt(1)}},
		Right: &sqlparser.Literal{Value: value.NewInt(0)},
	}
	if sel.Having != nil {
		always = &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, Left: sel.Having, Right: always}
	}
	sel.Having = always
	return sel.SQL(), true
}

// TestRowFedAggDifferential holds randomized row-fed templates to the
// interpreter: rows, order where the plan keeps FROM order, and error text.
// Most templates must answer, so the comparison is not just of errors.
func TestRowFedAggDifferential(t *testing.T) {
	ex := New(aggDiffDB(t, 300, 707))
	rng := rand.New(rand.NewSource(808))
	const n = 70
	answered := 0
	for i := 0; i < n; i++ {
		q := rowFedTemplate(rng.Intn)
		requireRowFed(t, ex, q)
		comparePlannedNaive(t, ex, q)
		if _, err := ex.Query(q); err == nil {
			answered++
		}
	}
	t.Logf("%d/%d templates answered", answered, n)
	if answered < n/2 {
		t.Fatalf("only %d/%d templates answered — the differential is mostly of errors", answered, n)
	}
}

// FuzzGroupedDifferential holds grouped queries from both grammars — the
// fused templates (aggTemplate) and the row-fed ones (rowFedTemplate) — to
// the interpreter. The first byte picks the grammar (even: fused), each later
// byte one choice, modulo its range, and choices past the end are 0. A
// row-fed query must plan the row-fed agg step. The seeds are the first
// templates of TestVecAggDifferential's and TestRowFedAggDifferential's
// corpora, recorded as the bytes that draw them.
func FuzzGroupedDifferential(f *testing.F) {
	draw := func(grammar byte, pick func(n int) int) string {
		if grammar%2 == 0 {
			return aggTemplate(pick)
		}
		return rowFedTemplate(pick)
	}
	for grammar, seed := range []int64{202, 808} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			data := []byte{byte(grammar)}
			draw(byte(grammar), func(n int) int {
				v := rng.Intn(n)
				data = append(data, byte(v))
				return v
			})
			f.Add(data)
		}
	}
	ex := New(aggDiffDB(f, 300, 707))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rest := data[1:]
		q := draw(data[0], func(n int) int {
			if len(rest) == 0 {
				return 0
			}
			v := int(rest[0]) % n
			rest = rest[1:]
			return v
		})
		if data[0]%2 == 1 {
			requireRowFed(t, ex, q)
		}
		comparePlannedNaive(t, ex, q)
	})
}
