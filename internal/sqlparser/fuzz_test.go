package sqlparser

import (
	"reflect"
	"testing"
)

// fuzzSeeds are the hand-picked statements beyond the paper corpus: DML,
// DDL, and edge shapes (empty strings, unterminated literals, operators).
var fuzzSeeds = []string{
	"",
	";",
	"select * from T",
	"select a.x, b.y from A a join B b on a.id = b.id where a.x > 3 order by b.y desc limit 5",
	"select count(distinct x) from T group by y having count(*) > 1",
	"insert into T (a, b) values (1, 'two')",
	"update T set a = a + 1 where b is not null",
	"delete from T where x between 1 and 10",
	"create view V as select x from T",
	"select 'unterminated",
	"select * from T where x like 'a%_b'",
	"select case when x > 0 then 'p' else 'n' end from T",
	"select * from T where exists (select 1 from U where U.id = T.id)",
	"select * from T where x <= all (select y from U)",
	"select -1 + 2 * (3 - 4) / 5 % 6",
	"select (1 - 2) * 3, 1 / (r.id - 20), -(1 + 2), 2 * (3 / 2), 1 - (2 - 3) from R r",
	"select * from T where (a = b) = c and not (exists (select 1 from U)) and (x or y) and (p and q)",
	"explain plan select m.title from MOVIES m where m.id = 1",
	"explain select a.x from A a join B b on a.id = b.id",
}

// FuzzParse asserts three properties over arbitrary input: the parser never
// panics, and for every accepted statement the parse → print → parse
// round-trip is faithful — the reparsed AST equals the parsed one, so the
// printer keeps every parenthesis that matters — and stable — printing the
// reparsed AST reproduces the printed SQL byte-for-byte. Seeded with the full
// paper corpus; run the harness with:
//
//	go test -fuzz=FuzzParse ./internal/sqlparser
func FuzzParse(f *testing.F) {
	for _, q := range PaperQueries {
		f.Add(q)
	}
	f.Add(PaperQ6Verbatim)
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		printed := stmt.SQL()
		stmt2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printer emitted unparsable SQL\ninput:   %q\nprinted: %q\nerror:   %v", src, printed, err)
		}
		if !reflect.DeepEqual(stmt2, stmt) {
			t.Fatalf("printed SQL parses to another tree\ninput:   %q\nprinted: %q", src, printed)
		}
		if reprinted := stmt2.SQL(); reprinted != printed {
			t.Fatalf("round-trip not stable\ninput:  %q\nfirst:  %q\nsecond: %q", src, printed, reprinted)
		}
	})
}

// FuzzParseScript extends the property to multi-statement scripts.
func FuzzParseScript(f *testing.F) {
	f.Add("select * from T; insert into T (a) values (1);")
	f.Add("create view V as select x from T; select * from V")
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := ParseScript(src)
		if err != nil {
			return
		}
		for _, stmt := range stmts {
			printed := stmt.SQL()
			if _, err := Parse(printed); err != nil {
				t.Fatalf("script statement does not reparse: %q: %v", printed, err)
			}
		}
	})
}
