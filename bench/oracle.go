package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/storage"
)

// oracle is the plain-Go model every scripted answer is checked against. It
// is filled from the generator's tuples — read straight off the storage rows,
// never through the engine — and then follows each scripted write, so an
// expectation computed while the script is generated holds at the moment the
// request runs. Only MOVIES is ever written; the other relations stay as
// generated.
type oracle struct {
	movies      map[int64]movie
	nMovies     int // generated ids are 1..nMovies
	actorNames  []string
	actorMovies [][]int64 // actor id-1 → movie ids, one per cast entry
	nameActors  map[string][]int64
	genres      []genreRow
	roles       []castRow
}

type movie struct {
	title string
	year  int64
}

type genreRow struct {
	mid   int64
	genre string
}

type castRow struct {
	mid  int64
	role string
}

// generate builds the database talkbackd serves under `-scale n`.
func generate(n int) (*storage.Database, error) {
	cfg := dataset.DefaultGenConfig()
	cfg.Movies = n
	cfg.Actors = n / 2
	return dataset.GenerateMovieDB(cfg)
}

func newOracle(db *storage.Database) *oracle {
	o := &oracle{movies: map[int64]movie{}, nameActors: map[string][]int64{}}
	for _, t := range db.Table("MOVIES").Tuples() {
		o.movies[t[0].Int()] = movie{t[1].Text(), t[2].Int()}
	}
	o.nMovies = len(o.movies)
	for _, t := range db.Table("ACTOR").Tuples() {
		o.actorNames = append(o.actorNames, t[1].Text())
		o.nameActors[t[1].Text()] = append(o.nameActors[t[1].Text()], t[0].Int())
	}
	o.actorMovies = make([][]int64, len(o.actorNames))
	for _, t := range db.Table("CAST").Tuples() {
		aid := t[1].Int()
		o.actorMovies[aid-1] = append(o.actorMovies[aid-1], t[0].Int())
		o.roles = append(o.roles, castRow{t[0].Int(), t[2].Text()})
	}
	for _, t := range db.Table("GENRE").Tuples() {
		o.genres = append(o.genres, genreRow{t[0].Int(), t[1].Text()})
	}
	return o
}

// titlesOfActors lists one title per cast entry of the given actors — the
// answer of the MOVIES ⋈ CAST ⋈ ACTOR join.
func (o *oracle) titlesOfActors(aids ...int64) [][]string {
	var rows [][]string
	for _, aid := range aids {
		for _, mid := range o.actorMovies[aid-1] {
			rows = append(rows, []string{o.movies[mid].title})
		}
	}
	return rows
}

// genreCountsAbove answers GROUP BY genre over GENRE rows with mid > k.
func (o *oracle) genreCountsAbove(k int64) [][]string {
	counts := map[string]int{}
	for _, g := range o.genres {
		if g.mid > k {
			counts[g.genre]++
		}
	}
	var rows [][]string
	for g, n := range counts {
		rows = append(rows, []string{g, strconv.Itoa(n)})
	}
	return rows
}

// rolesBetween lists the role of every cast entry of movies lo..hi.
func (o *oracle) rolesBetween(lo, hi int64) [][]string {
	var rows [][]string
	for _, c := range o.roles {
		if c.mid >= lo && c.mid <= hi {
			rows = append(rows, []string{c.role})
		}
	}
	return rows
}

// titlesWhere lists the titles of the movies pred accepts.
func (o *oracle) titlesWhere(pred func(id int64, m movie) bool) [][]string {
	var rows [][]string
	for id, m := range o.movies {
		if pred(id, m) {
			rows = append(rows, []string{m.title})
		}
	}
	return rows
}

func (o *oracle) insert(id int64, title string, year int64) { o.movies[id] = movie{title, year} }

func (o *oracle) setYear(id, year int64) {
	m := o.movies[id]
	m.year = year
	o.movies[id] = m
}

// shiftYears is UPDATE MOVIES SET year = year + by WHERE year BETWEEN lo AND hi.
func (o *oracle) shiftYears(lo, hi, by int64) int {
	n := 0
	for id, m := range o.movies {
		if m.year >= lo && m.year <= hi {
			m.year += by
			o.movies[id] = m
			n++
		}
	}
	return n
}

// askReply is the part of an /ask response the checks read.
type askReply struct {
	Rows     [][]*string `json:"rows"`
	RowCount int         `json:"row_count"`
	Affected int         `json:"affected"`
	Answer   string      `json:"answer"`
	Feedback string      `json:"feedback"`
	Plan     string      `json:"plan"`
}

// rowKeys renders rows as sorted strings: answers are compared as multisets,
// because SQL fixes no order without ORDER BY.
func rowKeys(rows [][]string) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x00")
	}
	sort.Strings(keys)
	return keys
}

// wantRows checks a SELECT answer against the oracle's rows; feedback states
// whether the empty/large-answer explanation must be present.
func wantRows(rows [][]string, feedback bool) func([]byte) error {
	want := rowKeys(rows)
	return func(body []byte) error {
		var got askReply
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.RowCount != len(want) || len(got.Rows) != len(want) {
			return fmt.Errorf("got %d rows, oracle has %d", got.RowCount, len(want))
		}
		cells := make([][]string, len(got.Rows))
		for i, r := range got.Rows {
			for _, c := range r {
				if c == nil {
					return fmt.Errorf("unexpected NULL in row %d", i)
				}
				cells[i] = append(cells[i], *c)
			}
		}
		for i, k := range rowKeys(cells) {
			if k != want[i] {
				return fmt.Errorf("row %q is not the oracle's %q", k, want[i])
			}
		}
		if got.Answer == "" {
			return fmt.Errorf("answer is not narrated")
		}
		if feedback != (got.Feedback != "") {
			return fmt.Errorf("feedback present=%v, want %v", got.Feedback != "", feedback)
		}
		return nil
	}
}

// wantAffected checks a DML acknowledgement.
func wantAffected(n int) func([]byte) error {
	return func(body []byte) error {
		var got askReply
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Affected != n {
			return fmt.Errorf("%d rows affected, oracle says %d", got.Affected, n)
		}
		return nil
	}
}

// wantText checks that the named string field of a JSON reply holds every
// given substring (and is not empty).
func wantText(field string, subs ...string) func([]byte) error {
	return func(body []byte) error {
		var got map[string]any
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		text, _ := got[field].(string)
		if text == "" {
			return fmt.Errorf("no %s in reply", field)
		}
		for _, s := range subs {
			if !strings.Contains(text, s) {
				return fmt.Errorf("%s does not mention %q", field, s)
			}
		}
		return nil
	}
}
