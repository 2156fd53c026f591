package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/sqlparser"
)

func TestGetPut(t *testing.T) {
	c := New[int](64)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("a", 10)
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("refresh lost: got %d", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 16 over 16 shards = 1 entry per shard: any two keys on the
	// same shard evict each other, and the most recent survives.
	c := New[string](shardCount)
	for i := 0; i < 10*shardCount; i++ {
		c.Put(fmt.Sprintf("k%d", i), "v")
	}
	if c.Len() > shardCount {
		t.Fatalf("Len() = %d, want <= %d", c.Len(), shardCount)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("expected evictions, got %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%64)
				c.Put(key, i)
				if v, ok := c.Get(key); ok && v < 0 {
					t.Errorf("bad value %d", v)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("cache empty after concurrent writes")
	}
}

func TestNormalizeSQL(t *testing.T) {
	cases := []struct{ a, b string }{
		{"select * from MOVIES", "SELECT  *\nFROM movies ;"},
		{"select * from MOVIES", "select * from MOVIES; "},
	}
	for _, tc := range cases {
		if NormalizeSQL(tc.a) != NormalizeSQL(tc.b) {
			t.Errorf("Normalize(%q) = %q != Normalize(%q) = %q",
				tc.a, NormalizeSQL(tc.a), tc.b, NormalizeSQL(tc.b))
		}
	}
	// The parser accepts one terminator: a second one is a parse error, so
	// the text must not share the key of the statement it would cut back to.
	for _, tc := range []struct{ a, b string }{
		{"select m.title from MOVIES m where m.year > 2000",
			"SELECT M.TITLE FROM movies M WHERE m.year > 2000;;"},
		{"select m.title from MOVIES m", "select m.title from MOVIES m ; ;"},
		{"select 'a", "select 'a;"},
	} {
		if NormalizeSQL(tc.a) == NormalizeSQL(tc.b) {
			t.Errorf("Normalize(%q) and Normalize(%q) share the key %q", tc.a, tc.b, NormalizeSQL(tc.a))
		}
	}
	// Quoted literals keep their case; the same query with a different
	// literal must NOT share a key.
	a := NormalizeSQL("select * from ACTOR a where a.name = 'Brad Pitt'")
	b := NormalizeSQL("select * from ACTOR a where a.name = 'brad pitt'")
	if a == b {
		t.Fatalf("literals were case-folded: %q", a)
	}
	if NormalizeSQL("select 'a  b'") != "select 'a  b'" {
		t.Fatalf("whitespace inside literal collapsed: %q", NormalizeSQL("select 'a  b'"))
	}
	// Comments are token separators, exactly as in the lexer: a commented
	// statement shares its key with the uncommented form, and an
	// apostrophe inside a comment must not derail string tracking.
	if NormalizeSQL("select a -- trailing note\nfrom T") != NormalizeSQL("select a from T") {
		t.Errorf("line comment changed the key: %q", NormalizeSQL("select a -- trailing note\nfrom T"))
	}
	if NormalizeSQL("select a /* block */ from T") != NormalizeSQL("select a from T") {
		t.Errorf("block comment changed the key: %q", NormalizeSQL("select a /* block */ from T"))
	}
	if NormalizeSQL("-- don't trip\nselect 'ABC'") != "select 'ABC'" {
		t.Errorf("apostrophe in comment corrupted normalization: %q",
			NormalizeSQL("-- don't trip\nselect 'ABC'"))
	}
	if NormalizeSQL("select 1--1") != "select 1" {
		t.Errorf("1--1 must lex as 1 + comment: %q", NormalizeSQL("select 1--1"))
	}
	if NormalizeSQL("select a / b from T") != "select a / b from t" {
		t.Errorf("division mangled: %q", NormalizeSQL("select a / b from T"))
	}
	// Whitespace is what the lexer skips — space, tab, LF, CR — and nothing
	// more, and only ASCII letters fold: a text the lexer rejects must not
	// share the key of the clean text.
	clean := "select m.title from MOVIES m where m.id = 100"
	if NormalizeSQL("select\tm.title\r\nfrom MOVIES m where m.id = 100") != NormalizeSQL(clean) {
		t.Error("tab/CR/LF are no longer token separators")
	}
	for _, odd := range []string{"\u00a0", "\f", "\v", "\u2003", "\u0085"} {
		if dirty := "select m.title from MOVIES" + odd + "m where m.id = 100"; NormalizeSQL(dirty) == NormalizeSQL(clean) {
			t.Errorf("%q, which the lexer rejects, normalizes to the clean key", dirty)
		}
	}
	if NormalizeSQL("select m.title from MOVIES m where m.id = 100 \u00a0;") == NormalizeSQL(clean) {
		t.Error("a trailing no-break space was trimmed")
	}
	if NormalizeSQL("select \u212a from t") == NormalizeSQL("select k from t") {
		t.Error("the Kelvin sign folds to k")
	}
	// Double-quoted identifiers keep exact bytes: different idents must not
	// collide, and case inside quotes is preserved.
	if NormalizeSQL(`select "a  b" from T`) == NormalizeSQL(`select "a b" from T`) {
		t.Fatal("distinct quoted identifiers share a cache key")
	}
	if NormalizeSQL(`select "Col" from T`) == NormalizeSQL(`select "col" from T`) {
		t.Fatal("quoted identifier case was folded")
	}
	// Exact bytes means bytes: the lexer reads a quoted run byte by byte, so
	// two literals (or identifiers) that differ in a byte that is not valid
	// UTF-8 are different statements.
	for _, q := range []string{`'`, `"`} {
		a, b := "select * from T where c = "+q+"x\xff"+q, "select * from T where c = "+q+"x\xfe"+q
		if NormalizeSQL(a) == NormalizeSQL(b) {
			t.Errorf("%q and %q share the key %q", a, b, NormalizeSQL(a))
		}
		if NormalizeSQL(a) != "select * from t where c = "+q+"x\xff"+q {
			t.Errorf("%q lost bytes inside quotes: %q", a, NormalizeSQL(a))
		}
	}
}

// normalizeSQLRunes is NormalizeSQL as it was written before it went byte by
// byte: the same state machine over []rune.
func normalizeSQLRunes(sql string) string {
	var b strings.Builder
	const (
		code = iota
		inString
		inIdent
	)
	state := code
	pendingSpace := false
	runes := []rune(sql)
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		switch state {
		case inString:
			b.WriteRune(r)
			if r == '\'' {
				state = code
			}
			continue
		case inIdent:
			b.WriteRune(r)
			if r == '"' {
				state = code
			}
			continue
		}
		if r == '-' && i+1 < len(runes) && runes[i+1] == '-' {
			for i < len(runes) && runes[i] != '\n' {
				i++
			}
			pendingSpace = b.Len() > 0
			continue
		}
		if r == '/' && i+1 < len(runes) && runes[i+1] == '*' {
			i += 2
			for i+1 < len(runes) && !(runes[i] == '*' && runes[i+1] == '/') {
				i++
			}
			i++
			pendingSpace = b.Len() > 0
			continue
		}
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
			pendingSpace = b.Len() > 0
			continue
		}
		if pendingSpace {
			b.WriteByte(' ')
			pendingSpace = false
		}
		switch r {
		case '\'':
			state = inString
		case '"':
			state = inIdent
		default:
			if 'A' <= r && r <= 'Z' {
				r += 'a' - 'A'
			}
		}
		b.WriteRune(r)
	}
	out := b.String()
	if state == code {
		out = strings.TrimSuffix(strings.TrimSuffix(out, ";"), " ")
	}
	return out
}

// TestNormalizeSQLKeysUnchangedOnValidUTF8: on valid UTF-8 the byte-wise
// normalizer gives the key the rune-wise one gave, so no cached entry moved.
func TestNormalizeSQLKeysUnchangedOnValidUTF8(t *testing.T) {
	alphabet := []string{
		"select", "FROM", "Movies", "m", ".", "title", "=", "'", "'", "\"", "--", "/*", "*/", "/", "*", "-",
		" ", "  ", "\t", "\n", "\r\n", ";", "é", "É", "中文", "\u00a0", "\u212a", "\u2003", "\ufffd", "x", "K",
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		sql := sb.String()
		if got, want := NormalizeSQL(sql), normalizeSQLRunes(sql); got != want {
			t.Fatalf("NormalizeSQL(%q) = %q, was %q", sql, got, want)
		}
	}
}

// TestNormalizeSQLAllocs pins the key pass of a cache hit to its one
// allocation, the key itself, on hot_ask's two statement shapes: a point
// lookup and the paper's Brad-Pitt three-way join.
func TestNormalizeSQLAllocs(t *testing.T) {
	for _, sql := range []string{
		"select m.title, m.year from MOVIES m where m.id = 42",
		"select m.title from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
	} {
		if n := testing.AllocsPerRun(100, func() { NormalizeSQL(sql) }); n > 1 {
			t.Errorf("NormalizeSQL(%q) allocates %v times, want 1", sql, n)
		}
	}
}

// normalizeSeeds are the texts TestNormalizeSQL compares, as fuzz seeds.
var normalizeSeeds = []string{
	"select * from MOVIES", "SELECT  *\nFROM movies ;", "select * from MOVIES; ",
	"SELECT M.TITLE FROM movies M WHERE m.year > 2000;;", "select m.title from MOVIES m ; ;",
	"select 'a", "select 'a;", "select * from ACTOR a where a.name = 'Brad Pitt'",
	"select 'a  b'", "select a -- trailing note\nfrom T", "select a /* block */ from T",
	"-- don't trip\nselect 'ABC'", "select 1--1", "select a / b from T",
	"select\tm.title\r\nfrom MOVIES m where m.id = 100", "select m.title from MOVIES\u00a0m where m.id = 100",
	"select m.title from MOVIES m where m.id = 100 \u00a0;", "select \u212a from t",
	`select "a  b" from T`, `select "Col" from T`, "select * from T where c = 'x\xff'",
	`select * from T where c = "x\xfe"`,
}

// FuzzNormalizeSQL holds the cache key, which every /ask and /describe body
// reaches, to three properties: it never panics; on valid UTF-8 it is the
// key normalizeSQLRunes gives; and a statement that parses keeps parsing
// from its key, to the same SQL up to identifier case. Run the harness with:
//
//	go test -fuzz=FuzzNormalizeSQL ./internal/cache
func FuzzNormalizeSQL(f *testing.F) {
	for _, s := range normalizeSeeds {
		f.Add(s)
	}
	for _, q := range sqlparser.PaperQueries {
		f.Add(q)
	}
	f.Add(sqlparser.PaperQ6Verbatim)
	f.Fuzz(func(t *testing.T, sql string) {
		key := NormalizeSQL(sql)
		if utf8.ValidString(sql) {
			if want := normalizeSQLRunes(sql); key != want {
				t.Fatalf("NormalizeSQL(%q) = %q, want %q", sql, key, want)
			}
		}
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return
		}
		keyed, err := sqlparser.Parse(key)
		if err != nil {
			t.Fatalf("%q parses but its key %q does not: %v", sql, key, err)
		}
		if a, b := stmt.SQL(), keyed.SQL(); !strings.EqualFold(a, b) {
			t.Fatalf("%q prints %q but its key %q prints %q", sql, a, key, b)
		}
	})
}

func TestClear(t *testing.T) {
	c := New[int](64)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len() = %d after Clear", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived Clear")
	}
}
