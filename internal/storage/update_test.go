package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
	"repro/internal/wal"
)

// wholeRows spreads replacement rows of width attributes into UpdateAt's
// form: every attribute set, one run of the replacements' values each.
func wholeRows(width int, repls []Tuple) ([]int, []value.Value) {
	attrs := make([]int, width)
	vals := make([]value.Value, 0, len(attrs)*len(repls))
	for j := range attrs {
		attrs[j] = j
		for _, repl := range repls {
			vals = append(vals, repl[j])
		}
	}
	return attrs, vals
}

// diffSchema is the differential test's schema: U, one attribute of every
// kind under a primary key and NOT NULL, filled past three zones; and EMP
// and DEPT, whose foreign keys run in a circle — DEPT.mgr into EMP's key,
// EMP.dept into DEPT's — with two keys of EMP into itself: boss into its
// primary key (a probe) and buddy into its name (a scan).
func diffSchema(t testing.TB) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema("diff")
	for _, r := range []*catalog.Relation{
		{
			Name: "U",
			Attributes: []*catalog.Attribute{
				{Name: "id", Type: catalog.Int, NotNull: true},
				{Name: "f", Type: catalog.Float},
				{Name: "s", Type: catalog.Text, NotNull: true},
				{Name: "d", Type: catalog.Date},
				{Name: "b", Type: catalog.Bool},
				{Name: "n", Type: catalog.Int},
			},
			PrimaryKey: []string{"id"},
		},
		{
			Name: "DEPT",
			Attributes: []*catalog.Attribute{
				{Name: "id", Type: catalog.Int, NotNull: true},
				{Name: "name", Type: catalog.Text, NotNull: true},
				{Name: "mgr", Type: catalog.Int},
			},
			PrimaryKey: []string{"id"},
			ForeignKey: []catalog.ForeignKey{{Attrs: []string{"mgr"}, RefRelation: "EMP", RefAttrs: []string{"id"}}},
		},
		{
			Name: "EMP",
			Attributes: []*catalog.Attribute{
				{Name: "id", Type: catalog.Int, NotNull: true},
				{Name: "name", Type: catalog.Text, NotNull: true},
				{Name: "dept", Type: catalog.Int},
				{Name: "boss", Type: catalog.Int},
				{Name: "buddy", Type: catalog.Text},
			},
			PrimaryKey: []string{"id"},
			ForeignKey: []catalog.ForeignKey{
				{Attrs: []string{"dept"}, RefRelation: "DEPT", RefAttrs: []string{"id"}},
				{Attrs: []string{"boss"}, RefRelation: "EMP", RefAttrs: []string{"id"}},
				{Attrs: []string{"buddy"}, RefRelation: "EMP", RefAttrs: []string{"name"}},
			},
		},
	} {
		if err := s.AddRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

const diffRows = 2*ZoneRows + 300

// diffSeed fills a diffSchema database: U's rows narrow enough in n and d to
// keep the frame-of-reference encoding on, EMP's forty employees in five
// departments with bosses and buddies among the ones before them.
func diffSeed(t testing.TB, db *Database) {
	t.Helper()
	ctx := context.Background()
	rows := make([]Tuple, diffRows)
	for r := range rows {
		f := value.NewFloat(float64(r%9) / 2)
		if r%31 == 4 {
			f = value.NewNull()
		}
		rows[r] = Tuple{
			value.NewInt(int64(r)), f, value.NewText(fmt.Sprintf("s%d", r%13)),
			value.NewDateDays(int64(r % 40)), value.NewBool(r%2 == 0), value.NewInt(int64(r % 100)),
		}
	}
	if _, err := db.InsertRows(ctx, "U", rows); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 5; d++ {
		if err := db.Insert("DEPT", Tuple{value.NewInt(int64(d)), value.NewText(fmt.Sprintf("dept%d", d)), value.NewNull()}); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 40; e++ {
		boss, buddy := value.NewNull(), value.NewNull()
		if e > 0 {
			boss, buddy = value.NewInt(int64(e/3)), value.NewText(fmt.Sprintf("e%d", e/2))
		}
		if err := db.Insert("EMP", Tuple{value.NewInt(int64(e)), value.NewText(fmt.Sprintf("e%d", e)), value.NewInt(int64(e % 5)), boss, buddy}); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 5; d++ {
		if _, err := db.UpdateAt(ctx, "DEPT", []int{d}, []int{2}, []value.Value{value.NewInt(int64(d * 7))}); err != nil {
			t.Fatal(err)
		}
	}
}

// diffStatement is one random UPDATE: the positions, the set attributes and
// one run of values each.
type diffStatement struct {
	rel       string
	positions []int
	attrs     []int
	vals      []value.Value
}

// drawStatement draws an UPDATE of rel over tbl. Most values are ordinary;
// some are the stored value, NULL into a NOT NULL attribute, a value that
// needs coercion or fails it, NaN, -0.0 and +0.0, a key another row holds,
// a key a row earlier in the statement gives up or takes, or a foreign key
// nothing holds.
func drawStatement(rng *rand.Rand, tbl *Table, fresh *int64) diffStatement {
	st := diffStatement{rel: tbl.rel.Name}
	rows := tbl.Len()
	switch rng.Intn(4) {
	case 0: // a few scattered rows
		for p := rng.Intn(rows); p < rows && len(st.positions) < 6; p += 1 + rng.Intn(rows/4+1) {
			st.positions = append(st.positions, p)
		}
	case 1: // a dense run across a zone boundary (where the table has one)
		lo := max(0, min(rows-1, ZoneRows-rng.Intn(200)))
		if rows <= ZoneRows {
			lo = rng.Intn(rows)
		}
		for p := lo; p < rows && p < lo+400; p++ {
			st.positions = append(st.positions, p)
		}
	default: // a spread over the whole table
		step := 1 + rng.Intn(max(1, rows/50))
		for p := rng.Intn(step); p < rows; p += step {
			st.positions = append(st.positions, p)
		}
	}
	for a := range tbl.cols {
		if rng.Intn(3) == 0 {
			st.attrs = append(st.attrs, a)
		}
	}
	if len(st.attrs) == 0 {
		st.attrs = []int{rng.Intn(len(tbl.cols))}
	}
	n := len(st.positions)
	// About one run in two trips, usually some way in.
	rare := func() bool { return rng.Intn(2*n+4) == 0 }
	for _, a := range st.attrs {
		attr := tbl.rel.Attributes[a]
		for k, p := range st.positions {
			stored := tbl.cols[a].value(p)
			var v value.Value
			switch {
			case rng.Intn(8) == 0:
				v = stored
			case rare():
				v = trip(tbl, a)
			case attr.Name == "id":
				switch {
				case rare(): // a key another row holds
					v = tbl.cols[a].value(rng.Intn(rows))
				case rare() && k+1 < n: // swap with the next row
					v = tbl.cols[a].value(st.positions[k+1])
				case k > 0 && rng.Intn(4) == 0:
					// The key of a row earlier in the statement: free if
					// that row gave it up, taken if it kept it.
					v = tbl.cols[a].value(st.positions[rng.Intn(k)])
				case rng.Intn(5) == 0:
					v = value.NewText(fmt.Sprint(*fresh)) // coerces to INT
					*fresh++
				default:
					v = value.NewInt(*fresh)
					*fresh++
				}
			default:
				v = drawValue(rng, tbl, a)
			}
			st.vals = append(st.vals, v)
		}
	}
	if rng.Intn(4) == 0 {
		// One row every set attribute refuses: the first in declaration
		// order names the refusal.
		k := rng.Intn(n)
		for c, a := range st.attrs {
			st.vals[c*n+k] = trip(tbl, a)
		}
	}
	return st
}

// trip returns a value attribute a refuses: NULL into NOT NULL, a key
// nothing holds, a text no coercion takes — or NULL, which an attribute
// that refuses nothing takes.
func trip(tbl *Table, a int) value.Value {
	attr := tbl.rel.Attributes[a]
	switch {
	case attr.NotNull:
		return value.NewNull()
	case tbl.rel.Name+"."+attr.Name == "EMP.buddy":
		return value.NewText("nobody")
	case len(tbl.rel.ForeignKey) > 0 && tbl.cols[a].kind == value.Int:
		return value.NewInt(9999)
	case tbl.cols[a].kind != value.Text:
		return value.NewText("x")
	}
	return value.NewNull()
}

// drawValue draws an ordinary value for attribute a: within the column's
// usual range, with NULLs where it takes them, values that need a coercion,
// NaN and both zeros.
func drawValue(rng *rand.Rand, tbl *Table, a int) value.Value {
	attr := tbl.rel.Attributes[a]
	switch tbl.rel.Name + "." + attr.Name {
	case "DEPT.mgr", "EMP.boss":
		if rng.Intn(6) == 0 {
			return value.NewNull()
		}
		return value.NewInt(int64(rng.Intn(40)))
	case "EMP.dept":
		return value.NewInt(int64(rng.Intn(5)))
	case "EMP.buddy":
		if rng.Intn(6) == 0 {
			return value.NewNull()
		}
		return value.NewText(fmt.Sprintf("e%d", rng.Intn(40)))
	case "EMP.name":
		return value.NewText(fmt.Sprintf("e%d", rng.Intn(40)))
	}
	switch tbl.cols[a].kind {
	case value.Int:
		if rng.Intn(5) == 0 {
			return value.NewFloat(float64(rng.Intn(100))) // coerces
		}
		return value.NewInt(int64(rng.Intn(100)))
	case value.Float:
		return []value.Value{value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0),
			value.NewFloat(1.5), value.NewInt(3), value.NewNull(), value.NewFloat(4)}[rng.Intn(7)]
	case value.Text:
		if rng.Intn(8) == 0 {
			return value.NewDateDays(int64(rng.Intn(3))) // coerces to text
		}
		return value.NewText(fmt.Sprintf("s%d", rng.Intn(20)))
	case value.Date:
		if rng.Intn(6) == 0 {
			return value.NewText("1970-01-05") // coerces
		}
		return []value.Value{value.NewNull(), value.NewDateDays(int64(rng.Intn(60)))}[rng.Intn(2)]
	case value.Bool:
		return []value.Value{value.NewNull(), value.NewBool(true), value.NewBool(false)}[rng.Intn(3)]
	}
	return value.NewNull()
}

// tableBits hashes a table down to its stored bits: every NULL bit and
// payload (text by dictionary code, with the dictionary's strings and live
// count), every zone summary (floats by their bits), the frame-of-reference
// bases and the bytes of the non-NULL rows, and the statistics.
func tableBits(tbl *Table) string {
	h := fnv.New64a()
	n := tbl.Len()
	var buf []byte
	for j := range tbl.cols {
		c := &tbl.cols[j]
		buf = buf[:0]
		for i := 0; i < n; i++ {
			if c.nulls.get(i) {
				buf = append(buf, 'n')
				continue
			}
			switch c.kind {
			case value.Int, value.Date:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(c.int(i)))
			case value.Float:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.flt(i)))
			case value.Text:
				buf = binary.LittleEndian.AppendUint32(buf, c.code(i))
			case value.Bool:
				buf = strconv.AppendBool(buf, c.bl(i))
			}
		}
		if c.dict != nil {
			buf = fmt.Appendf(buf, "%q live %d", c.dict.strs, c.dict.live)
		}
		for z := 0; z < c.zoneCount(); z++ {
			zn := *c.zoneAt(z)
			buf = fmt.Appendf(buf, "[%d %v %v %d:%d %x:%x %q:%q]", zn.nulls, zn.has, zn.hasNaN, zn.minI, zn.maxI,
				math.Float64bits(zn.minF), math.Float64bits(zn.maxF), zn.minS, zn.maxS)
		}
		if base, d8, ok := tbl.Col(j).FORInts(); ok {
			buf = fmt.Appendf(buf, "for %v", base)
			for i := 0; i < n; i++ {
				if !c.nulls.get(i) {
					buf = append(buf, d8[i>>ZoneShift][i&ZoneMask])
				}
			}
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%x %+v", h.Sum64(), tbl.Stats())
}

// dbBits is tableBits over every table of db.
func dbBits(db interface{ Table(string) *Table }, names []string) string {
	out := ""
	for _, name := range names {
		out += name + " " + tableBits(db.Table(name)) + "\n"
	}
	return out
}

// TestUpdateMatchesRowLoop holds the column-at-a-time update path to the row
// loop it replaced (update_oracle_test.go) over random UPDATEs on U (three
// zones) and on EMP and DEPT (circular foreign keys, keys into EMP itself):
// multi-column SETs, primary-key changes with swaps and collisions midway,
// NOT NULL trips and coercions midway, NULL to value and back, NaN, -0.0
// and unchanged values. Each statement must return the same count and
// error text, leave the same stored bits, zones and statistics, and copy no
// more bytes out from under the version published before it, which must
// read as it did. At the end each
// database's log — op 0x05 from the path, op 0x03 from the loop — must
// replay to its live state.
func TestUpdateMatchesRowLoop(t *testing.T) {
	ctx := context.Background()
	names := []string{"DEPT", "EMP", "U"}
	open := func(fs *wal.MemFS) *Database {
		db, err := NewDatabase(diffSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.EnableDurability(fs, DurableOptions{CheckpointBytes: -1}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	pathFS, loopFS := wal.NewMemFS(), wal.NewMemFS()
	path, loop := open(pathFS), open(loopFS)
	diffSeed(t, path)
	diffSeed(t, loop)
	rng := rand.New(rand.NewSource(47))
	fresh := int64(100_000)
	refused := map[string]int{}
	for i := 0; i < 100; i++ {
		rel := []string{"U", "EMP", "EMP", "DEPT"}[i%4]
		st := drawStatement(rng, path.Table(rel), &fresh)
		step := fmt.Sprintf("statement %d (%s, %d rows, attrs %v)", i, rel, len(st.positions), st.attrs)

		// Only the statement's table can change.
		touched := []string{rel}
		pinned := path.Snapshot()
		before := dbBits(pinned, touched)
		vals := append([]value.Value(nil), st.vals...)
		n, err := path.UpdateAt(ctx, rel, st.positions, st.attrs, vals)

		k := 0
		rows := len(st.positions)
		wantN, wantErr := loop.rowLoopUpdateAt(ctx, rel, st.positions, func(tup Tuple) Tuple {
			for c, a := range st.attrs {
				tup[a] = st.vals[c*rows+k]
			}
			k++
			return tup
		})
		if n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: %d, %v; row loop %d, %v", step, n, err, wantN, wantErr)
		}
		if err != nil {
			refused[fmt.Sprint(err)[:min(len(fmt.Sprint(err)), 30)]]++
		}
		if got, want := dbBits(path, touched), dbBits(loop, touched); got != want {
			t.Fatalf("%s: state diverges from the row loop\n--- loop\n%s--- path\n%s", step, want, got)
		}
		// Copy-on-write copies out from under the pinned version only the
		// chunks, pages and headers of changed values: never more than the
		// row loop, which also rewrote a NaN over itself in every attribute
		// of a row it updated (NaN never equals the stored value).
		if got, loopCopied := path.copied.Load(), loop.copied.Load(); got > loopCopied {
			t.Fatalf("%s: copy-on-write copied %d bytes in all, the row loop %d", step, got, loopCopied)
		}
		if after := dbBits(pinned, touched); after != before {
			t.Fatalf("%s: the version published before the statement changed", step)
		}
		checkPKIndex(t, path.Table(rel), step)
	}
	if got, want := dbBits(path, names), dbBits(loop, names); got != want {
		t.Fatalf("the databases diverge\n--- loop\n%s--- path\n%s", want, got)
	}
	t.Logf("refusals: %v", refused)
	if len(refused) < 4 {
		t.Fatalf("the statements met too few kinds of refusal: %v", refused)
	}
	for _, db := range []struct {
		name string
		live *Database
		fs   *wal.MemFS
	}{{"column path (op 0x05)", path, pathFS}, {"row loop (op 0x03)", loop, loopFS}} {
		replayed, err := NewDatabase(diffSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := replayed.EnableDurability(db.fs.Clone(), DurableOptions{CheckpointBytes: -1}); err != nil {
			t.Fatalf("%s: recovery: %v", db.name, err)
		}
		if got, want := dbBits(replayed, names), dbBits(db.live, names); got != want {
			t.Fatalf("%s: the replayed log diverges from the live state\n--- live\n%s--- replayed\n%s", db.name, want, got)
		}
	}
}
