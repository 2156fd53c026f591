package planner

import (
	"strings"

	"repro/internal/storage"
)

// This file is the planner's share of zone-map scan pruning: its cost. Which
// filters lower to a zone probe is decided by the engine's compiler, which
// builds the probes from the same lowering that builds the row predicates and
// adds the zone-skip shape step when it built at least one. The planner only
// says when a base scan is large and selective enough for probing to pay.
// LikePrefix and PrefixSuccessor are the string arithmetic the engine's LIKE
// probe and its sorted-dictionary rank compare share.

// MorselRows is the number of base-table positions one zone-map morsel
// covers: the storage layer's zone granularity, so one zone summary decides
// a whole morsel.
const MorselRows = storage.ZoneRows

// zoneSkipMaxSelectivity is the estimated fraction of base rows surviving the
// scan's own filters above which zone probing is not worth the bookkeeping:
// an unselective scan touches nearly every morsel anyway.
const zoneSkipMaxSelectivity = 0.5

// ZoneSkipStep returns the zone-skip shape step for a base step worth probing
// — a full scan over a table with more than one zone whose filters are
// estimated selective enough that whole morsels plausibly fall out — and nil
// for any other. The engine asks before it compiles the step's filters, so a
// primary-key probe pays one comparison, and puts the step first in
// the plan's shape when a filter lowered to a probe.
func ZoneSkipStep(first *Step) *ShapeStep {
	if first.Access != ScanFull || first.TableRows < MorselRows {
		return nil
	}
	sel := first.EstRows / float64(first.TableRows)
	if sel > zoneSkipMaxSelectivity {
		return nil
	}
	morsels := (first.TableRows + MorselRows - 1) / MorselRows
	return &ShapeStep{
		Kind:       ShapeZoneSkip,
		K:          morsels,
		EstRows:    (1 - sel) * float64(morsels),
		ActualRows: -1,
	}
}

// LikePrefix splits a LIKE pattern into the literal prefix before its first
// wildcard and reports whether the remainder is nothing but '%' wildcards.
// Any matching string must start with the prefix (so zone string bounds can
// prove a morsel all-false); when prefixOnly is true the pattern matches
// exactly the strings with that prefix, so bounds can also prove all-true and
// a sorted dictionary can answer the predicate as a code-range compare.
func LikePrefix(pattern string) (prefix string, prefixOnly bool) {
	i := strings.IndexAny(pattern, "%_")
	if i < 0 {
		return pattern, false // no wildcard: exact-equality pattern
	}
	for _, r := range pattern[i:] {
		if r != '%' {
			return pattern[:i], false
		}
	}
	return pattern[:i], true
}

// PrefixSuccessor returns the smallest string greater than every string with
// the given prefix, and ok=false when no such string exists (the prefix is
// empty or all 0xFF bytes). [prefix, successor) is the string range a
// prefix predicate selects.
func PrefixSuccessor(prefix string) (string, bool) {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}
