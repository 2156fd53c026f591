package datatotext

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/lexicon"
	"repro/internal/nlg"
	"repro/internal/schemagraph"
	"repro/internal/storage"
	"repro/internal/templates"
	"repro/internal/value"
)

// The narration differential: every narrative the translator builds from the
// engine's answers is compared with a plain-Go reference that walks the
// tables itself — nested loops over Tuples(), bridged tuples in To-key order,
// a stable sort with NULLs last, a slice cut — over seeded small databases
// that hold what the curated ones lack: NULL order attributes, ties on them,
// duplicate bridge rows, a MaxListItems cut inside a tie, NULL foreign keys,
// and EMP/DEPT's circular direct foreign keys.

// refCoverage counts the hard cases the reference met, so a generator that
// stops producing one fails the test instead of passing vacuously.
type refCoverage struct {
	nullOrder, tie, dupBridge, cutInTie, nullKey, bothDirections int
}

type reference struct {
	db   *storage.Database
	rels []Relationship
	max  int // MaxListItems
	cov  *refCoverage
}

func (ref *reference) rel(name string) *catalog.Relation { return ref.db.Schema().Relation(name) }

// fkMatches reports whether own's foreign key fk equals other's referenced
// attributes, NULL matching nothing.
func fkMatches(fk catalog.ForeignKey, ownRel *catalog.Relation, own storage.Tuple, otherRel *catalog.Relation, other storage.Tuple) bool {
	for i, a := range fk.Attrs {
		av, bv := own[ownRel.AttrIndex(a)], other[otherRel.AttrIndex(fk.RefAttrs[i])]
		if av.IsNull() || bv.IsNull() || !av.Equal(bv) {
			return false
		}
	}
	return true
}

func (ref *reference) related(r Relationship, from storage.Tuple) []storage.Tuple {
	schema := ref.db.Schema()
	fromRel, toRel := ref.rel(r.From), ref.rel(r.To)
	toRows := ref.db.Table(r.To).Tuples()
	var out []storage.Tuple
	if r.Via == "" {
		for _, fk := range schema.ForeignKeysBetween(fromRel, toRel) {
			if from[fromRel.AttrIndex(fk.Attrs[0])].IsNull() {
				ref.cov.nullKey++
			}
		}
		for _, to := range toRows {
			fwd, rev := false, false
			for _, fk := range schema.ForeignKeysBetween(fromRel, toRel) {
				fwd = fwd || fkMatches(fk, fromRel, from, toRel, to)
			}
			for _, fk := range schema.ForeignKeysBetween(toRel, fromRel) {
				rev = rev || fkMatches(fk, toRel, to, fromRel, from)
			}
			if fwd && rev {
				ref.cov.bothDirections++
			}
			if fwd || rev {
				out = append(out, to)
			}
		}
	} else {
		viaRel := ref.rel(r.Via)
		fkFrom := schema.ForeignKeysBetween(viaRel, fromRel)[0]
		fkTo := schema.ForeignKeysBetween(viaRel, toRel)[0]
		seen := map[string]bool{}
		for _, via := range ref.db.Table(r.Via).Tuples() {
			if !fkMatches(fkFrom, viaRel, via, fromRel, from) {
				continue
			}
			for _, to := range toRows {
				if fkMatches(fkTo, viaRel, via, toRel, to) {
					if seen[to.String()] {
						ref.cov.dupBridge++
					}
					seen[to.String()] = true
					out = append(out, to)
					break
				}
			}
		}
		sort.SliceStable(out, func(a, b int) bool {
			for _, k := range toRel.PrimaryKey {
				p := toRel.AttrIndex(k)
				if c, _ := out[a][p].Compare(out[b][p]); c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	if r.OrderBy != "" {
		p := toRel.AttrIndex(r.OrderBy)
		before := func(a, b storage.Tuple) bool {
			va, vb := a[p], b[p]
			if va.IsNull() || vb.IsNull() {
				return vb.IsNull() && !va.IsNull()
			}
			c, _ := va.Compare(vb)
			if r.Desc {
				return c > 0
			}
			return c < 0
		}
		sort.SliceStable(out, func(a, b int) bool { return before(out[a], out[b]) })
		for i, tup := range out {
			if tup[p].IsNull() {
				ref.cov.nullOrder++
			}
			if i > 0 && !before(out[i-1], tup) {
				ref.cov.tie++
				if i == ref.max {
					ref.cov.cutInTie++
				}
			}
		}
	}
	if ref.max > 0 && len(out) > ref.max {
		out = out[:ref.max]
	}
	return out
}

func (ref *reference) find(rel, attr string, val value.Value) storage.Tuple {
	p := ref.rel(rel).AttrIndex(attr)
	for _, tup := range ref.db.Table(rel).Tuples() {
		if !tup[p].IsNull() && tup[p].Equal(val) {
			return tup
		}
	}
	return nil
}

func (ref *reference) heading(rel *catalog.Relation, tup storage.Tuple) string {
	if v := tup[rel.AttrIndex(rel.HeadingAttr)]; !v.IsNull() {
		return v.String()
	}
	return ""
}

// describeEntity is the expected DescribeEntity text. The test's graphs carry
// no projection templates, so a narrative is one sentence per relationship
// with related tuples: the head phrase plus the listed attribute (compact) or
// the non-NULL heading values (procedural), comma-separated.
func (ref *reference) describeEntity(rel string, tup storage.Tuple, style nlg.Realization, listAttr map[string]string) string {
	var sentences []string
	for _, r := range ref.rels {
		if r.From != rel {
			continue
		}
		related := ref.related(r, tup)
		if len(related) == 0 {
			continue
		}
		toRel := ref.rel(r.To)
		var items []string
		for _, to := range related {
			if style == nlg.Compact {
				items = append(items, to[toRel.AttrIndex(listAttr[r.To])].String())
			} else if h := ref.heading(toRel, to); h != "" {
				items = append(items, h)
			}
		}
		subject := tup[ref.rel(rel).AttrIndex(listAttr[rel])].String()
		sentences = append(sentences, lexicon.Sentence(subject+" has "+strings.Join(items, ", ")))
	}
	return nlg.Paragraph(sentences...)
}

// describeSplit is the expected DescribeEntitySplit text, "" when the entity
// has no heading value or is related to nothing (the translator reports
// either as an error).
func (ref *reference) describeSplit(rel string, tup storage.Tuple, to []string) string {
	fromRel := ref.rel(rel)
	var mentions []string
	for _, toName := range to {
		r := Relationship{From: rel, To: toName}
		for _, cand := range ref.rels {
			if (cand.From == toName && cand.To == rel) || (cand.From == rel && cand.To == toName) {
				r.Via = cand.Via
			}
		}
		related := ref.related(r, tup)
		if len(related) == 0 {
			continue
		}
		if h := ref.heading(ref.rel(toName), related[0]); h != "" {
			mentions = append(mentions, "the "+ref.rel(toName).Concept()+" "+h)
		}
	}
	if len(mentions) == 0 || ref.heading(fromRel, tup) == "" {
		return ""
	}
	return nlg.MergeSplit(fmt.Sprintf("the %s %s involves %s",
		fromRel.Concept(), ref.heading(fromRel, tup), lexicon.JoinAnd(mentions)), nil)
}

// listRelationship annotates from→to with the head "<subject> has <LIST>" and
// a list of the To relation's listAttr values.
func listRelationship(from, to, via, subject, listAttr, orderBy string, desc bool) Relationship {
	f := strings.ToUpper(listAttr)
	return Relationship{
		From: from, To: to, Via: via, OrderBy: orderBy, Desc: desc,
		Template: templates.MustParse(strings.ToUpper(subject) + ` + " has " + LIST`),
		List: templates.MustParseList(fmt.Sprintf(
			`[i < arityOf(%[1]s)] { %[1]s[i] + ", " } [i = arityOf(%[1]s)] { %[1]s[i] }`, f)),
	}
}

func intOrNull(rng *rand.Rand, nullOneIn int, lo, n int) value.Value {
	if rng.Intn(nullOneIn) == 0 {
		return value.NewNull()
	}
	return value.NewInt(int64(lo + rng.Intn(n)))
}

// randomMovieDB fills the movie schema — DIRECTED made key-less so a credit
// can repeat — with few distinct years (ties) and NULL years.
func randomMovieDB(t *testing.T, rng *rand.Rand) *storage.Database {
	t.Helper()
	schema := dataset.MovieSchema()
	schema.Relation("DIRECTED").PrimaryKey = nil
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	ins := func(rel string, vals ...value.Value) {
		t.Helper()
		if err := db.Insert(rel, storage.Tuple(vals)); err != nil {
			t.Fatal(err)
		}
	}
	directors, movies := 2+rng.Intn(3), 5+rng.Intn(8)
	for d := 1; d <= directors; d++ {
		// Names repeat, so a lookup by name must return the first in table order.
		ins("DIRECTOR", value.NewInt(int64(d)), value.NewText(fmt.Sprintf("dir%d", d%3)), value.NewNull(), value.NewNull())
	}
	for m := 1; m <= movies; m++ {
		ins("MOVIES", value.NewInt(int64(m)), value.NewText(fmt.Sprintf("mov%d", m)), intOrNull(rng, 4, 1990, 3))
		for _, g := range []string{"noir", "drama", "comedy"} {
			if rng.Intn(2) == 0 {
				ins("GENRE", value.NewInt(int64(m)), value.NewText(g))
			}
		}
	}
	for n := movies * 2; n > 0; n-- {
		ins("DIRECTED", value.NewInt(int64(1+rng.Intn(movies))), value.NewInt(int64(1+rng.Intn(directors))))
	}
	return db
}

// randomEmpDB fills EMP/DEPT, whose direct foreign keys point both ways:
// employees first with no department, departments managed by one of them or
// by nobody, then most employees assigned — some to the department they manage.
func randomEmpDB(t *testing.T, rng *rand.Rand) *storage.Database {
	t.Helper()
	db, err := storage.NewDatabase(dataset.EmpDeptSchema())
	if err != nil {
		t.Fatal(err)
	}
	emps, depts := 4+rng.Intn(6), 2+rng.Intn(3)
	for e := 1; e <= emps; e++ {
		if err := db.Insert("EMP", storage.Tuple{value.NewInt(int64(e)), value.NewText(fmt.Sprintf("emp%d", e)),
			value.NewNull(), intOrNull(rng, 4, 30, 3), value.NewNull()}); err != nil {
			t.Fatal(err)
		}
	}
	for d := 1; d <= depts; d++ {
		name := value.NewText(fmt.Sprintf("dept%d", d%2))
		if rng.Intn(4) == 0 {
			name = value.NewNull()
		}
		if err := db.Insert("DEPT", storage.Tuple{value.NewInt(int64(d)), name, intOrNull(rng, 4, 1, emps)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Update("EMP", func(storage.Tuple) bool { return true }, func(tup storage.Tuple) storage.Tuple {
		tup[4] = intOrNull(rng, 4, 1, depts)
		return tup
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNarrationDifferential(t *testing.T) {
	var cov refCoverage
	// A bridged list whose bridge order (dir2's DIRECTED row first) is not its
	// To-key order: the narrative follows the key.
	pinned := map[string]string{"seed 1 compact MOVIES.id = 2": "Mov2 has dir1. Mov2 has noir."}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		desc, limit := seed%2 == 0, rng.Intn(4)
		cases := []struct {
			db       *storage.Database
			rels     []Relationship
			listAttr map[string]string // the attribute a relation is listed and named by
			split    map[string][]string
		}{
			{
				db: randomMovieDB(t, rng),
				rels: []Relationship{
					listRelationship("DIRECTOR", "MOVIES", "DIRECTED", "name", "title", "year", desc),
					listRelationship("MOVIES", "DIRECTOR", "DIRECTED", "title", "name", "", false),
					listRelationship("MOVIES", "GENRE", "", "title", "genre", "genre", !desc),
				},
				listAttr: map[string]string{"DIRECTOR": "name", "MOVIES": "title", "GENRE": "genre"},
				split:    map[string][]string{"MOVIES": {"DIRECTOR", "GENRE"}, "DIRECTOR": {"MOVIES"}},
			},
			{
				db: randomEmpDB(t, rng),
				rels: []Relationship{
					listRelationship("EMP", "DEPT", "", "name", "did", "dname", desc),
					listRelationship("DEPT", "EMP", "", "did", "name", "age", !desc),
				},
				listAttr: map[string]string{"EMP": "name", "DEPT": "did"},
				split:    map[string][]string{"EMP": {"DEPT"}, "DEPT": {"EMP"}},
			},
		}
		for _, c := range cases {
			g, err := schemagraph.Build(c.db.Schema())
			if err != nil {
				t.Fatal(err)
			}
			ref := &reference{db: c.db, rels: c.rels, max: limit, cov: &cov}
			for _, style := range []nlg.Realization{nlg.Compact, nlg.Procedural} {
				eng := engine.New(c.db)
				tr := New(eng, g, Options{Style: style, MaxListItems: limit})
				for _, r := range c.rels {
					if err := tr.AddRelationship(r); err != nil {
						t.Fatal(err)
					}
				}
				for rel, splitTo := range c.split {
					relMeta := ref.rel(rel)
					for _, row := range c.db.Table(rel).Tuples() {
						// By key and by the (repeating, possibly NULL) heading.
						for _, attr := range []string{relMeta.PrimaryKey[0], relMeta.HeadingAttr} {
							val := row[relMeta.AttrIndex(attr)]
							tup := ref.find(rel, attr, val)
							where := fmt.Sprintf("seed %d %s %s.%s = %s", seed, style, rel, attr, val)
							got, err := tr.DescribeEntity(rel, attr, val)
							if tup == nil {
								if err == nil {
									t.Fatalf("%s: a NULL lookup found %q", where, got)
								}
								continue
							}
							if want := ref.describeEntity(rel, tup, style, c.listAttr); err != nil || got != want {
								t.Fatalf("%s: DescribeEntity\n got %q, %v\nwant %q", where, got, err, want)
							}
							if want, ok := pinned[where]; ok {
								if got != want {
									t.Fatalf("%s: DescribeEntity\n got %q\nwant %q", where, got, want)
								}
								delete(pinned, where)
							}
							got, err = tr.DescribeEntitySplit(rel, attr, val, splitTo)
							if want := ref.describeSplit(rel, tup, splitTo); (err == nil) != (want != "") || got != want {
								t.Fatalf("%s: DescribeEntitySplit\n got %q, %v\nwant %q", where, got, err, want)
							}
						}
					}
				}
			}
		}
	}
	if cov.nullOrder == 0 || cov.tie == 0 || cov.dupBridge == 0 || cov.cutInTie == 0 || cov.nullKey == 0 || cov.bothDirections == 0 {
		t.Fatalf("the generator no longer reaches every hard case: %+v", cov)
	}
	if len(pinned) > 0 {
		t.Fatalf("pinned narratives never met: %v", pinned)
	}
}
