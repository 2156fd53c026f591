// Package cache provides the sharded LRU caches behind the concurrent
// serving layer: parsed ASTs, query graphs, and translations are all keyed
// on normalized SQL so that repeated Ask/DescribeQuery calls skip the parse
// and translation pipeline entirely.
//
// The cache is safe for concurrent use. Keys are hashed onto a fixed set of
// shards, each with its own mutex and LRU list, so concurrent sessions
// contend only when they hash to the same shard.
package cache

import (
	"container/list"
	"hash/maphash"
	"strings"
	"sync"

	"repro/internal/sqlparser"
)

// shardCount is the number of independent lock domains. Must be a power of
// two so the hash can be masked instead of divided.
const shardCount = 16

// Stats reports cumulative cache effectiveness counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// Cache is a sharded LRU map from string keys to values of type V.
type Cache[V any] struct {
	shards [shardCount]shard[V]
	seed   maphash.Seed
	// capPerShard bounds each shard; total capacity is capPerShard*shardCount.
	capPerShard int
}

type shard[V any] struct {
	mu        sync.Mutex
	entries   map[string]*list.Element
	lru       *list.List // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

type entry[V any] struct {
	key string
	val V
}

// New creates a cache holding up to capacity entries (rounded up to a
// multiple of the shard count; capacity <= 0 defaults to 512).
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = 512
	}
	per := (capacity + shardCount - 1) / shardCount
	c := &Cache[V]{seed: maphash.MakeSeed(), capPerShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

func (c *Cache[V]) shardFor(key string) *shard[V] {
	h := maphash.String(c.seed, key)
	return &c.shards[h&(shardCount-1)]
}

// Get returns the cached value for key and marks it recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		s.hits++
		return el.Value.(*entry[V]).val, true
	}
	s.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes key, evicting the least recently used entry of
// the shard when it is full.
func (c *Cache[V]) Put(key string, val V) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*entry[V]).val = val
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= c.capPerShard {
		oldest := s.lru.Back()
		if oldest != nil {
			s.lru.Remove(oldest)
			delete(s.entries, oldest.Value.(*entry[V]).key)
			s.evictions++
		}
	}
	s.entries[key] = s.lru.PushFront(&entry[V]{key: key, val: val})
}

// Clear discards every entry (hit/miss/eviction counters are kept). Used
// when the cached values are known to be stale wholesale, e.g. result
// caches after data changes.
func (c *Cache[V]) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[string]*list.Element)
		s.lru = list.New()
		s.mu.Unlock()
	}
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats aggregates counters across all shards.
func (c *Cache[V]) Stats() Stats {
	var out Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evictions
		out.Entries += s.lru.Len()
		s.mu.Unlock()
	}
	return out
}

// NormalizeSQL canonicalizes a SQL string for use as a cache key. It reads
// the text token by token with sqlparser's Lexer.Scan, so a key sees exactly
// the tokens, comments and gaps the parser sees, and it applies four rules:
// every gap (space, tab, LF, CR and comments) between tokens becomes one
// space; ASCII letters outside quotes are lowercased; single-quoted literals
// and double-quoted identifiers keep their exact bytes; and one trailing
// semicolon is dropped together with the gap before it. Two statements that
// differ only in layout, comments, keyword case, or identifier case therefore
// share a cache entry, while statements differing inside quotes never
// collide. Nothing else is folded: a text the lexer rejects (a no-break space,
// a Kelvin sign for K) must not share the key of a text it accepts, or its
// error would depend on what is cached.
func NormalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	lx := sqlparser.NewLexer(sql)
	cut := -1 // where a trailing ";" and its gap begin
	for {
		kind, start, end, gap := lx.Scan()
		if kind == sqlparser.TokEOF {
			break
		}
		// The parser accepts one statement terminator, so only one is
		// dropped: "q;;" is a parse error and must not share the key of "q".
		cut = -1
		if kind == sqlparser.TokOp && sql[start:end] == ";" {
			cut = b.Len()
		}
		if gap && b.Len() > 0 {
			b.WriteByte(' ')
		}
		if kind != sqlparser.TokIdent { // only bare words hold letters outside quotes
			b.WriteString(sql[start:end])
			continue
		}
		for _, c := range []byte(sql[start:end]) {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		}
	}
	if cut >= 0 {
		return b.String()[:cut]
	}
	return b.String()
}
