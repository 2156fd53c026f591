package storage_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/value"
)

// This file holds the seeded property test of chunked copy-on-write: scripted
// and random INSERT, UPDATE and DELETE statements against a table of a few
// zones, a snapshot pinned before every statement, and every pinned snapshot
// re-read after every statement — while a concurrent reader runs the engine's
// vectorized kernels and fused aggregates over the pinned views, which under
// -race is what catches a chunk, a header array or a primary-key page written
// in place instead of copied.

const zr = storage.ZoneRows

func cowSchema() *catalog.Schema {
	s := catalog.NewSchema("cow")
	if err := s.AddRelation(&catalog.Relation{
		Name: "T",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "n", Type: catalog.Int},
			{Name: "f", Type: catalog.Float},
			{Name: "s", Type: catalog.Text},
			{Name: "d", Type: catalog.Date},
			{Name: "b", Type: catalog.Bool},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		panic(err)
	}
	return s
}

// cowQueries run through the selection kernels (INT range and IN, FLOAT
// range, TEXT codes) and the fused aggregate's per-zone payload reads.
var cowQueries = []string{
	"select count(*), min(id), max(id), sum(n) from T where n between 2 and 5",
	"select count(*), max(f), min(d) from T where f > 1.5 and n in (1, 3, 5)",
	"select s, count(*), max(id) from T where s <> 'w-0' group by s order by s",
	"select b, count(*), min(f) from T group by b order by b",
	"select id, d from T where s = 'w-3' and f <= 0.5 order by id limit 7",
}

func cowAnswers(t *testing.T, ex *engine.Engine) []string {
	out := make([]string, len(cowQueries))
	for i, q := range cowQueries {
		res, err := ex.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			return nil
		}
		out[i] = fmt.Sprint(res.Rows)
	}
	return out
}

// viewSum fingerprints what a reader can ask of a table view — every row by
// position, every column's zone summaries — and checks that every row's key
// probes to its own position.
func viewSum(t *testing.T, tbl *storage.Table, label string) uint64 {
	t.Helper()
	h := fnv.New64a()
	row := make([]value.Value, len(tbl.Relation().Attributes))
	var buf []byte
	for i := 0; i < tbl.Len(); i++ {
		tbl.CopyRow(row, i)
		buf = buf[:0]
		for _, v := range row {
			if v.IsNull() {
				buf = append(buf, 0)
			} else {
				buf = v.AppendKey(append(buf, 1))
			}
		}
		h.Write(buf)
		if pos, ok := tbl.LookupPKPos(row[0].AppendKey(buf[:0])); !ok || pos != i {
			t.Fatalf("%s: row %d's key probes to %d (found %v)", label, i, pos, ok)
		}
	}
	for p := range row {
		col := tbl.Col(p)
		fmt.Fprintf(h, "%v|", col.ZonesSynced(tbl.Len()))
		for z := 0; z < col.ZoneCount(); z++ {
			il, ih, iok := col.ZoneIntBounds(z)
			fl, fh, fok := col.ZoneFloatBounds(z)
			tl, th, tok := col.ZoneTextBounds(z)
			fmt.Fprintf(h, "%d %d %d %v %g %g %v %q %q %v;",
				col.ZoneNulls(z), il, ih, iok, fl, fh, fok, tl, th, tok)
		}
	}
	return h.Sum64()
}

type cowPin struct {
	label   string
	snap    *storage.Snapshot
	sum     uint64
	answers []string
}

// cowRun drives the database and its plain-Go model through statements.
type cowRun struct {
	t      *testing.T
	db     *storage.Database
	ex     *engine.Engine
	rng    *rand.Rand
	model  []storage.Tuple
	nextID int64
	stmts  int

	mu   sync.Mutex
	pins []*cowPin
}

func (r *cowRun) row() storage.Tuple {
	r.nextID++
	tup := storage.Tuple{value.NewInt(r.nextID)}
	for p := 1; p < 6; p++ {
		tup = append(tup, r.val(p))
	}
	return tup
}

// val draws a value for attribute p, NULL one time in five.
func (r *cowRun) val(p int) value.Value {
	if r.rng.Intn(5) == 0 {
		return value.NewNull()
	}
	switch p {
	case 1:
		return value.NewInt(int64(r.rng.Intn(8)))
	case 2:
		return value.NewFloat(float64(r.rng.Intn(10)) / 4)
	case 3:
		return value.NewText(fmt.Sprintf("w-%d", r.rng.Intn(5)))
	case 4:
		return value.NewDateDays(int64(r.rng.Intn(50) - 25))
	default:
		return value.NewBool(r.rng.Intn(2) == 0)
	}
}

// stmt pins the current version, runs one statement, and checks that every
// pinned version still reads as it did when pinned and that the live table
// equals the model. Pins are kept for the last eight statements and every
// eighth one before, which bounds the re-reads while old views still age.
func (r *cowRun) stmt(label string, apply func()) {
	t := r.t
	t.Helper()
	snap := r.db.Snapshot()
	p := &cowPin{label: label, snap: snap, sum: viewSum(t, snap.Table("T"), label), answers: cowAnswers(t, r.ex.At(snap))}
	r.mu.Lock()
	r.pins = append(r.pins, p)
	if n := len(r.pins); n > 8 && (r.stmts-8)%8 != 0 {
		r.pins = slices.Delete(r.pins, n-9, n-8)
	}
	pins := slices.Clone(r.pins)
	r.mu.Unlock()
	r.stmts++

	apply()

	for _, p := range pins {
		if got := viewSum(t, p.snap.Table("T"), p.label); got != p.sum {
			t.Fatalf("after %s: the version pinned before %s changed", label, p.label)
		}
	}
	live := r.db.Table("T").Tuples()
	if len(live) != len(r.model) {
		t.Fatalf("after %s: live table has %d rows, model %d", label, len(live), len(r.model))
	}
	for i := range live {
		if live[i].String() != r.model[i].String() {
			t.Fatalf("after %s: row %d is %s, model %s", label, i, live[i], r.model[i])
		}
	}
}

func (r *cowRun) insert(label string) {
	tup := r.row()
	r.stmt(label, func() {
		if err := r.db.Insert("T", tup.Clone()); err != nil {
			r.t.Fatal(err)
		}
		r.model = append(r.model, tup)
	})
}

// update replaces the rows at positions with repls, in one statement.
func (r *cowRun) update(label string, positions []int, repls []storage.Tuple) {
	r.stmt(label, func() {
		// Every attribute is set, a run of the replacements' values each.
		width := len(repls[0])
		attrs := make([]int, width)
		vals := make([]value.Value, 0, width*len(repls))
		for j := range attrs {
			attrs[j] = j
			for _, repl := range repls {
				vals = append(vals, repl[j])
			}
		}
		n, err := r.db.UpdateAt(context.Background(), "T", positions, attrs, vals)
		if err != nil || n != len(positions) {
			r.t.Fatalf("%s: n=%d err=%v", label, n, err)
		}
		for i, p := range positions {
			r.model[p] = repls[i]
		}
	})
}

// changed returns the rows at positions with some attributes redrawn — the
// primary key too when rekey is set.
func (r *cowRun) changed(positions []int, rekey bool) []storage.Tuple {
	out := make([]storage.Tuple, len(positions))
	for i, p := range positions {
		tup := r.model[p].Clone()
		for a := 1; a < 6; a++ {
			if r.rng.Intn(2) == 0 {
				tup[a] = r.val(a)
			}
		}
		if rekey {
			r.nextID++
			tup[0] = value.NewInt(r.nextID)
		}
		out[i] = tup
	}
	return out
}

func (r *cowRun) delete(label string, positions []int) {
	r.stmt(label, func() {
		if n, err := r.db.DeleteAt(context.Background(), "T", positions); err != nil || n != len(positions) {
			r.t.Fatalf("%s: n=%d err=%v", label, n, err)
		}
		for i := len(positions) - 1; i >= 0; i-- {
			r.model = slices.Delete(r.model, positions[i], positions[i]+1)
		}
	})
}

func span(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for p := lo; p < hi; p++ {
		out = append(out, p)
	}
	return out
}

// randomPositions draws k distinct ascending positions.
func (r *cowRun) randomPositions(k int) []int {
	seen := map[int]bool{}
	for len(seen) < min(k, len(r.model)) {
		seen[r.rng.Intn(len(r.model))] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

func TestChunkedCopyOnWriteProperty(t *testing.T) {
	db, err := storage.NewDatabase(cowSchema())
	if err != nil {
		t.Fatal(err)
	}
	r := &cowRun{t: t, db: db, ex: engine.New(db), rng: rand.New(rand.NewSource(28))}
	for range 3*zr + 700 {
		tup := r.row()
		if err := db.Insert("T", tup.Clone()); err != nil {
			t.Fatal(err)
		}
		r.model = append(r.model, tup)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		ex := engine.New(db)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.mu.Lock()
			pins := slices.Clone(r.pins)
			r.mu.Unlock()
			for _, p := range pins {
				got := cowAnswers(t, ex.At(p.snap))
				if !slices.Equal(got, p.answers) {
					t.Errorf("concurrent reader: the version pinned before %s answers %v, pinned %v", p.label, got, p.answers)
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	r.update("update of rows 4095 and 4096", []int{zr - 1, zr}, r.changed([]int{zr - 1, zr}, false))
	r.delete("delete across a chunk boundary", []int{zr - 3, zr - 1, zr, zr + 2})
	r.delete("delete of a whole chunk", span(zr, 2*zr))
	r.delete("truncation to two chunks", span(2*zr, len(r.model)))
	for i := range 5 {
		r.insert(fmt.Sprintf("append %d after the truncation", i))
	}

	// Dictionary compaction: a hundred fresh strings, then every one of them
	// dead again, leave dead entries dominating a dictionary worth compacting.
	churn := r.randomPositions(100)
	fresh := make([]storage.Tuple, len(churn))
	for i, p := range churn {
		fresh[i] = r.model[p].Clone()
		fresh[i][3] = value.NewText(fmt.Sprintf("churn-%d", i))
	}
	r.update("update to fresh strings", churn, fresh)
	grown := db.Table("T").Col(3).DictLen()
	back := make([]storage.Tuple, len(churn))
	for i := range churn {
		back[i] = fresh[i].Clone()
		back[i][3] = value.NewText("w-1")
	}
	r.update("update back to an old string", churn, back)
	if now := db.Table("T").Col(3).DictLen(); now >= grown {
		t.Fatalf("dictionary did not compact: %d entries, %d before", now, grown)
	}
	r.update("primary-key-changing update", []int{3, zr + 10}, r.changed([]int{3, zr + 10}, true))

	for i := range 40 {
		label := fmt.Sprintf("random statement %d", i)
		switch op := r.rng.Intn(10); {
		case op < 3 || len(r.model) < zr:
			r.insert(label + " (insert)")
		case op < 6:
			positions := r.randomPositions(1 + r.rng.Intn(4))
			r.update(label+" (update)", positions, r.changed(positions, r.rng.Intn(4) == 0))
		case op < 8:
			r.delete(label+" (delete)", r.randomPositions(1+r.rng.Intn(4)))
		default:
			lo := r.rng.Intn(len(r.model) - 1)
			r.delete(label+" (delete run)", span(lo, min(len(r.model), lo+1+r.rng.Intn(300))))
		}
	}
}
