package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/planner"
	"repro/internal/querytotext"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file proves that zone-map scan pruning never changes an answer: every
// query runs with zone maps on, with zone maps off, and on the forced-naive
// pipeline, and all three must agree byte for byte. The table spans several
// storage zones (the pruning gate needs at least planner.MorselRows rows) with
// clustered columns so morsels really do get skipped, plus NULLs and float
// NaNs so the conservative verdict paths get exercised.

const zoneTestRows = 3*storage.ZoneRows + 700

// zoneTestDB builds a multi-zone table with row-clustered values: id is
// sequential, grp and s cluster in row order (so zone bounds are tight), d
// ascends, f carries NULLs, NaNs and negative zeros, n carries NULLs.
func zoneTestDB(t testing.TB, sortedDict bool) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema("zones")
	if err := schema.AddRelation(&catalog.Relation{
		Name: "Z",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "grp", Type: catalog.Int, NotNull: true},
			{Name: "n", Type: catalog.Int},
			{Name: "f", Type: catalog.Float},
			{Name: "s", Type: catalog.Text},
			{Name: "d", Type: catalog.Date},
			{Name: "b", Type: catalog.Bool},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase(schema)
	if err != nil {
		t.Fatal(err)
	}
	if sortedDict {
		if err := db.EnableSortedDict("Z", "s"); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(991))
	for i := 0; i < zoneTestRows; i++ {
		n := value.NewInt(int64(rng.Intn(50)))
		if rng.Intn(8) == 0 {
			n = value.NewNull()
		}
		f := value.NewFloat(float64(i) / 100)
		switch rng.Intn(40) {
		case 0:
			f = value.NewNull()
		case 1:
			f = value.NewFloat(math.NaN())
		case 2:
			f = value.NewFloat(math.Copysign(0, -1))
		}
		s := value.NewText(fmt.Sprintf("c%03d-w%d", i/512, rng.Intn(6)))
		if rng.Intn(16) == 0 {
			s = value.NewNull()
		}
		tup := storage.Tuple{
			value.NewInt(int64(i)),
			value.NewInt(int64(i / 512)),
			n,
			f,
			s,
			value.NewDateDays(int64(i / 8)),
			value.NewBool(i%7 == 0),
		}
		if err := db.Insert("Z", tup); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// compareZoneModes runs sql with zone maps enabled, disabled, and on the
// interpreter, requiring identical output (order included) in all three.
func compareZoneModes(t *testing.T, ex *Engine, sql string) {
	t.Helper()
	ex.SetZoneMapsEnabled(true)
	zoned, errZ := ex.Query(sql)
	ex.SetZoneMapsEnabled(false)
	plain, errP := ex.Query(sql)
	ex.SetZoneMapsEnabled(true)

	if (errZ != nil) != (errP != nil) {
		t.Fatalf("%s\nzoned err = %v, plain err = %v", sql, errZ, errP)
	}
	if errZ == nil {
		requireSameResult(t, sql, "zoned", zoned, "plain", plain)
	}
	comparePlannedNaive(t, ex, sql)
}

func requireSameResult(t *testing.T, sql, aName string, a *Result, bName string, b *Result) {
	t.Helper()
	if len(a.Columns) != len(b.Columns) {
		t.Fatalf("%s\ncolumns: %s %v, %s %v", sql, aName, a.Columns, bName, b.Columns)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s\n%s %d rows, %s %d rows", sql, aName, len(a.Rows), bName, len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			x, y := a.Rows[i][j], b.Rows[i][j]
			if x.IsNull() != y.IsNull() || (!x.IsNull() && !x.Equal(y)) {
				t.Fatalf("%s\nrow %d col %d: %s %s, %s %s", sql, i, j, aName, x, bName, y)
			}
		}
	}
}

// zoneTemplates is the zone-probe dialect as randomized query builders:
// ordering and equality on every kind, IS NULL, BETWEEN, IN, LIKE prefixes,
// floats with NaN, conjunctions, and shaping or grouping over the pruned scan.
func zoneTemplates(rng *rand.Rand) []func() string {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	op := func() string { return ops[rng.Intn(len(ops))] }
	return []func() string{
		func() string {
			return fmt.Sprintf("select z.id from Z z where z.id %s %d", op(), rng.Intn(zoneTestRows))
		},
		func() string {
			return fmt.Sprintf("select z.id, z.grp from Z z where z.grp = %d", rng.Intn(30))
		},
		func() string {
			return fmt.Sprintf("select z.id from Z z where z.n %s %d", op(), rng.Intn(50))
		},
		func() string {
			return fmt.Sprintf("select z.id from Z z where z.f %s %d.25", op(), rng.Intn(130))
		},
		func() string {
			return fmt.Sprintf("select z.id, z.s from Z z where z.s %s 'c%03d-w2'", op(), rng.Intn(30))
		},
		func() string {
			return fmt.Sprintf("select z.id from Z z where z.s like 'c%03d-%%'", rng.Intn(30))
		},
		func() string {
			return fmt.Sprintf("select z.id from Z z where z.d %s DATE '1970-%02d-%02d'",
				op(), 1+rng.Intn(12), 1+rng.Intn(28))
		},
		func() string {
			return fmt.Sprintf("select z.id from Z z where z.b = %v and z.id < %d",
				rng.Intn(2) == 0, rng.Intn(zoneTestRows))
		},
		func() string {
			neg := ""
			if rng.Intn(2) == 0 {
				neg = " not"
			}
			return fmt.Sprintf("select z.id from Z z where z.f is%s null and z.id < %d",
				neg, 1+rng.Intn(zoneTestRows))
		},
		func() string {
			lo := rng.Intn(zoneTestRows)
			neg := ""
			if rng.Intn(2) == 0 {
				neg = "not "
			}
			return fmt.Sprintf("select z.id from Z z where z.id %sbetween %d and %d", neg, lo, lo+600)
		},
		func() string {
			neg := ""
			if rng.Intn(2) == 0 {
				neg = "not "
			}
			items := fmt.Sprintf("%d, %d", rng.Intn(30), rng.Intn(30))
			if rng.Intn(3) == 0 {
				items += ", null"
			}
			return fmt.Sprintf("select z.id from Z z where z.grp %sin (%s)", neg, items)
		},
		func() string {
			return fmt.Sprintf("select z.id from Z z where z.s in ('c001-w1', 'c%03d-w%d', 'absent')",
				rng.Intn(30), rng.Intn(6))
		},
		func() string {
			// Conjunction across kinds: several probes must agree.
			return fmt.Sprintf("select z.id from Z z where z.id < %d and z.grp >= %d and z.s like 'c00%d-%%'",
				rng.Intn(zoneTestRows), rng.Intn(10), rng.Intn(10))
		},
		func() string {
			// Vec prefix + generic conjunct: probes only cover the prefix.
			return fmt.Sprintf("select z.id from Z z where z.id < %d and z.id + z.grp > %d",
				rng.Intn(zoneTestRows), rng.Intn(100))
		},
		func() string {
			// Shaping on top of the pruned scan.
			return fmt.Sprintf("select z.id, z.n from Z z where z.id < %d order by z.n desc, z.id limit %d",
				512+rng.Intn(1024), 1+rng.Intn(20))
		},
		func() string {
			// Grouped: pruned scan under the fused vec-aggregate.
			return fmt.Sprintf("select z.grp, count(*), sum(z.n) from Z z where z.id < %d group by z.grp order by z.grp",
				256+rng.Intn(2048))
		},
	}
}

// TestZoneSkipDifferentialRandomized sweeps the zone-probe dialect — ordering
// and equality on every kind, IS NULL, BETWEEN, IN, LIKE prefixes, floats
// with NaN — over the multi-zone clustered table, with and without a sorted
// dictionary on the text column.
func TestZoneSkipDifferentialRandomized(t *testing.T) {
	for _, sorted := range []bool{false, true} {
		name := "plain-dict"
		if sorted {
			name = "sorted-dict"
		}
		t.Run(name, func(t *testing.T) {
			ex := New(zoneTestDB(t, sorted))
			templates := zoneTemplates(rand.New(rand.NewSource(113)))
			for trial := 0; trial < 120; trial++ {
				compareZoneModes(t, ex, templates[trial%len(templates)]())
			}
		})
	}
}

// TestZoneSkipExplain pins the acceptance surface: a selective scan over the
// clustered table carries a zone-skip shape step that reports skipping most
// morsels, EXPLAIN narrates it, and an unselective scan carries none.
func TestZoneSkipExplain(t *testing.T) {
	ex := New(zoneTestDB(t, false))
	wantZones := (zoneTestRows + planner.MorselRows - 1) / planner.MorselRows

	sel := mustParse(t, "select z.id from Z z where z.id < 600")
	res, plan, err := ex.SelectExplained(sel)
	if err != nil {
		t.Fatal(err)
	}
	var zs *planner.ShapeStep
	for _, sh := range plan.Shape {
		if sh.Kind == planner.ShapeZoneSkip {
			zs = sh
		}
	}
	if zs == nil {
		t.Fatalf("no zone-skip step in shape of selective scan; fingerprint %s", plan.Fingerprint())
	}
	if zs.K != wantZones {
		t.Fatalf("zone-skip K = %d, want %d morsels", zs.K, wantZones)
	}
	// id < 600 lives entirely in the first zone: all but one morsel skipped.
	if zs.ActualRows != wantZones-1 {
		t.Fatalf("zone-skip ActualRows = %d, want %d skipped", zs.ActualRows, wantZones-1)
	}
	if len(res.Rows) != 600 {
		t.Fatalf("result rows = %d, want 600", len(res.Rows))
	}
	if !strings.Contains(plan.Fingerprint(), ">zskip") {
		t.Fatalf("fingerprint %q lacks >zskip", plan.Fingerprint())
	}

	text := querytotext.PlanEnglish(plan.Summarize())
	want := fmt.Sprintf("skipped %d of %d morsels", wantZones-1, wantZones)
	if !strings.Contains(text, want) {
		t.Fatalf("plan narration %q lacks %q", text, want)
	}
	if !strings.Contains(text, "The query produced 600 rows") {
		t.Fatalf("plan narration %q lacks produced count", text)
	}

	// An unselective filter fails the planner's selectivity gate.
	selAll := mustParse(t, "select z.id from Z z where z.id >= 0")
	if _, planAll, err := ex.SelectExplained(selAll); err != nil {
		t.Fatal(err)
	} else if hasZoneSkip(planAll) {
		t.Fatalf("unselective scan kept a zone-skip step: %s", planAll.Fingerprint())
	}

	// With zone maps disabled no probe is built, so the step is never added.
	ex.SetZoneMapsEnabled(false)
	defer ex.SetZoneMapsEnabled(true)
	if _, planOff, err := ex.SelectExplained(mustParse(t, "select z.id from Z z where z.id < 600")); err != nil {
		t.Fatal(err)
	} else if hasZoneSkip(planOff) {
		t.Fatalf("disabled zone maps left a zone-skip step: %s", planOff.Fingerprint())
	}
}

// TestZoneSkipCounters pins the process-wide skip counters benchmarks assert.
func TestZoneSkipCounters(t *testing.T) {
	ex := New(zoneTestDB(t, false))
	ResetZoneSkipStats()
	if _, err := ex.Query("select z.id from Z z where z.id < 600"); err != nil {
		t.Fatal(err)
	}
	probed, skipped := ZoneSkipStats()
	if probed == 0 || skipped == 0 {
		t.Fatalf("zone counters not engaged: probed %d skipped %d", probed, skipped)
	}
	if skipped > probed {
		t.Fatalf("skipped %d > probed %d", skipped, probed)
	}
}

// TestZoneSkipParallelSubZoneChunks runs four workers over a table of three
// full zones and 700 rows, so every worker's contiguous range starts or ends
// inside a storage zone; the zone walker must still prune correctly and
// count each zone exactly once.
func TestZoneSkipParallelSubZoneChunks(t *testing.T) {
	ex := New(zoneTestDB(t, false))
	ex.SetParallelism(4)
	defer ex.SetParallelism(0)

	for _, sql := range []string{
		"select z.grp, count(*), sum(z.n), min(z.s) from Z z where z.id < 900 group by z.grp order by z.grp",
		"select z.grp, avg(z.grp), count(z.f) from Z z where z.grp between 3 and 9 group by z.grp order by z.grp",
	} {
		compareZoneModes(t, ex, sql)
	}

	ResetZoneSkipStats()
	if _, err := ex.Query("select z.grp, count(*) from Z z where z.id < 900 group by z.grp"); err != nil {
		t.Fatal(err)
	}
	probed, _ := ZoneSkipStats()
	if want := int64((zoneTestRows + storage.ZoneRows - 1) / storage.ZoneRows); probed != want {
		t.Fatalf("parallel sub-zone ranges counted %d zones, want %d", probed, want)
	}
}

// TestLikeParityDifferential is the LIKE fuzzer: adversarial patterns —
// wildcards only, empty, escape-lookalikes (the dialect has no escapes, so
// backslash is literal), multi-byte runes, replacement characters, patterns
// with no prefix — must agree across the naive evaluator, the vectorized
// dictionary verdicts, the zone-map prefix pruning, and the sorted-dictionary
// rank range, in every combination.
func TestLikeParityDifferential(t *testing.T) {
	vocab := []string{
		"", "a", "ab", "abc", "abd", "ab%", "ab_", `ab\`, `a\%b`, "aBc",
		"prefix-one", "prefix-two", "prefixx", "préfix", "præfix",
		"中文字符", "中文", "日本語", "�odd", "odd�", "zz\xff",
	}
	schema := catalog.NewSchema("like")
	if err := schema.AddRelation(&catalog.Relation{
		Name: "L",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "s", Type: catalog.Text},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, sorted := range []bool{false, true} {
		db, err := storage.NewDatabase(schema)
		if err != nil {
			t.Fatal(err)
		}
		if sorted {
			if err := db.EnableSortedDict("L", "s"); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(7))
		// Enough rows to clear the zone gate, clustered so prefixes prune.
		for i := 0; i < storage.ZoneRows+900; i++ {
			s := value.NewText(vocab[(i/512+rng.Intn(3))%len(vocab)])
			if rng.Intn(12) == 0 {
				s = value.NewNull()
			}
			if err := db.Insert("L", storage.Tuple{value.NewInt(int64(i)), s}); err != nil {
				t.Fatal(err)
			}
		}
		ex := New(db)

		patterns := []string{
			"", "%", "%%", "_", "__", "%_", "_%",
			"a%", "ab%", "abc", "ab_", "a_c", "a__",
			`ab\%`, `a\%b`, `\%`, `%\%%`,
			"prefix-%", "prefix%", "préf%", "præ%", "中%", "中文%", "日本語",
			"�%", "%�", "odd%", "zz%",
			"ab%c", "%fix-one", "p%x", "a%b%c",
		}
		for _, pat := range patterns {
			quoted := strings.ReplaceAll(pat, "'", "''")
			sql := fmt.Sprintf("select l.id from L l where l.s like '%s'", quoted)
			compareZoneModes(t, ex, sql)
		}
	}
}
