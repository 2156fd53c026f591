package planner_test

import (
	"testing"

	"repro/internal/planner"
)

func TestLikePrefix(t *testing.T) {
	cases := []struct {
		pattern, prefix string
		prefixOnly      bool
	}{
		{"", "", false}, // no wildcard: exact match of the empty string
		{"%", "", true},
		{"%%", "", true},
		{"abc", "abc", false}, // no wildcard: exact match, not a prefix scan
		{"abc%", "abc", true},
		{"abc%%", "abc", true},
		{"abc%d", "abc", false},
		{"abc_", "abc", false},
		{"a%b", "a", false},
		{"_bc", "", false},
		{"中文%", "中文", true},
		{`ab\%`, `ab\`, true}, // the dialect has no escapes: backslash is literal
	}
	for _, c := range cases {
		prefix, prefixOnly := planner.LikePrefix(c.pattern)
		if prefix != c.prefix || prefixOnly != c.prefixOnly {
			t.Errorf("LikePrefix(%q) = (%q, %v), want (%q, %v)",
				c.pattern, prefix, prefixOnly, c.prefix, c.prefixOnly)
		}
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct {
		prefix, succ string
		ok           bool
	}{
		{"abc", "abd", true},
		{"ab\xff", "ac", true},
		{"\xff\xff", "", false}, // no finite upper bound
		{"", "", false},
		{"a\xff\xff", "b", true},
		{"中", "\xe4\xb8\xae", true}, // byte-level increment, not rune-level
	}
	for _, c := range cases {
		succ, ok := planner.PrefixSuccessor(c.prefix)
		if succ != c.succ || ok != c.ok {
			t.Errorf("PrefixSuccessor(%q) = (%q, %v), want (%q, %v)", c.prefix, succ, ok, c.succ, c.ok)
		}
	}
	// The successor must be a strict upper bound for the prefix range.
	for _, p := range []string{"a", "movie", "zz\xfe", "a\xff"} {
		succ, ok := planner.PrefixSuccessor(p)
		if !ok {
			t.Fatalf("PrefixSuccessor(%q) not ok", p)
		}
		if !(p < succ) {
			t.Errorf("successor %q not greater than %q", succ, p)
		}
		if sample := p + "\xff\xff\xff"; !(sample < succ) {
			t.Errorf("%q (extends %q) not below successor %q", sample, p, succ)
		}
	}
}
