package storage_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// TestUpdateChecksChangedForeignKeys holds UPDATE to the foreign keys INSERT
// enforces: a replacement that points a foreign key at a missing row is
// refused with the INSERT's error and leaves its row as it was, while the
// rows updated before it stay updated and logged — and recovery from that
// log lands on the same table.
func TestUpdateChecksChangedForeignKeys(t *testing.T) {
	fs := wal.NewMemFS()
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.EnableDurability(fs, storage.DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	cast := db.Table("CAST")
	if cast.Len() < 2 {
		t.Fatalf("CAST holds %d rows", cast.Len())
	}
	first, second := cast.Tuple(0), cast.Tuple(1)
	insertErr := db.Insert("CAST", storage.Tuple{value.NewInt(999999), second[1], value.NewText("x")})
	if insertErr == nil {
		t.Fatal("insert of a dangling cast entry was accepted")
	}

	// Row 0's role is renamed, row 1's movie moved to a missing one.
	n, err := db.UpdateAt(context.Background(), "CAST", []int{0, 1}, []int{0, 2},
		[]value.Value{first[0], value.NewInt(999999), value.NewText("renamed"), second[2]})
	if err == nil || n != 1 {
		t.Fatalf("dangling update: n=%d err=%v, want one row updated and a refusal", n, err)
	}
	if err.Error() != insertErr.Error() {
		t.Fatalf("update refusal %q, insert's %q", err, insertErr)
	}
	if got := cast.Tuple(0); got[2].Text() != "renamed" || !got[0].Equal(first[0]) {
		t.Fatalf("row updated before the refusal reads %s", got)
	}
	if got := cast.Tuple(1); got.String() != second.String() {
		t.Fatalf("refused row reads %s, was %s", got, second)
	}

	recovered, err := storage.NewDatabase(dataset.MovieSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.EnableDurability(fs.Clone(), storage.DurableOptions{CheckpointBytes: -1}); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(recovered.Table("CAST").Tuples()), fmt.Sprint(cast.Tuples()); got != want {
		t.Fatalf("WAL replay diverges from the live table:\n--- live\n%s\n--- replayed\n%s", want, got)
	}
}

// TestUpdateLeavesUnchangedForeignKeysAlone: only a changed foreign key is
// probed. A cast entry left dangling by its movie's delete (DELETE does not
// restrict) can still have its role changed; pointing it at another missing
// movie is refused.
func TestUpdateLeavesUnchangedForeignKeysAlone(t *testing.T) {
	db, err := dataset.CuratedMovieDB()
	if err != nil {
		t.Fatal(err)
	}
	entry := db.Table("CAST").Tuple(0)
	if _, err := db.Delete("MOVIES", func(tup storage.Tuple) bool { return tup[0].Equal(entry[0]) }); err != nil {
		t.Fatal(err)
	}
	if n, err := db.UpdateAt(context.Background(), "CAST", []int{0}, []int{2}, []value.Value{value.NewText("still here")}); err != nil || n != 1 {
		t.Fatalf("update of a dangling row's role: n=%d err=%v", n, err)
	}
	if n, err := db.UpdateAt(context.Background(), "CAST", []int{0}, []int{0}, []value.Value{value.NewInt(999999)}); err == nil || n != 0 {
		t.Fatalf("update to another missing movie: n=%d err=%v", n, err)
	}
}
