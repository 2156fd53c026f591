package querytotext

import (
	"fmt"
	"strings"

	"repro/internal/lexicon"
	"repro/internal/planner"
)

// PlanEnglish narrates an execution plan — the paper's "talking back" applied
// to the optimizer itself. It states how each step accesses its relation,
// what was expected versus observed, where the cost concentrates, and what
// would make the query cheaper.
func PlanEnglish(s *planner.Summary) string {
	if s == nil {
		return ""
	}

	var sentences []string
	sentences = append(sentences, lexicon.Sentence(fmt.Sprintf(
		"The plan runs in %s with an estimated cost of %s units",
		lexicon.CountNoun(len(s.Steps), "step"), formatCount(s.EstCost))))

	for i, st := range s.Steps {
		var b strings.Builder
		fmt.Fprintf(&b, "Step %d ", i+1)
		target := fmt.Sprintf("%s (as %s, %s)", st.Relation, st.Alias, lexicon.CountNoun(st.TableRows, "row"))
		switch st.Access {
		case "full scan":
			b.WriteString("scans all of " + target)
		case "primary-key probe":
			b.WriteString("fetches one row of " + target + " by primary key")
		case "hash join":
			if st.HashSide == planner.HashOuter {
				fmt.Fprintf(&b, "hashes the %s so far and scans %s once for %s",
					lexicon.CountNoun(st.HashedRows, "row"), target, st.JoinKey)
			} else {
				fmt.Fprintf(&b, "hashes %s and probes it with %s", target, st.JoinKey)
			}
		case "primary-key join":
			fmt.Fprintf(&b, "looks up %s by primary key for each row so far, using %s", target, st.JoinKey)
		default: // nested loop
			b.WriteString("pairs every row so far with every row of " + target)
		}
		switch st.Join {
		case "left":
			if len(st.Filters) > 0 {
				b.WriteString(", matching where " + strings.Join(st.Filters, " and "))
			}
			fmt.Fprintf(&b, ", keeping every row so far and padding %s with NULLs where nothing matches", st.Alias)
		case "right":
			if len(st.Filters) > 0 {
				b.WriteString(", matching where " + strings.Join(st.Filters, " and "))
			}
			fmt.Fprintf(&b, ", keeping every row of %s and padding the rows so far with NULLs where nothing matches", st.Relation)
		default:
			if len(st.Filters) > 0 {
				b.WriteString(", keeping rows where " + strings.Join(st.Filters, " and "))
			}
		}
		if st.ActualRows >= 0 {
			fmt.Fprintf(&b, " — about %s expected, %d seen", formatCount(st.EstRows), st.ActualRows)
		} else {
			fmt.Fprintf(&b, " — about %s expected", formatCount(st.EstRows))
		}
		sentences = append(sentences, lexicon.Sentence(b.String()))
	}

	if len(s.Residual) > 0 {
		sentences = append(sentences, lexicon.Sentence(fmt.Sprintf(
			"After the joins, %s run per row: %s",
			lexicon.CountNoun(len(s.Residual), "residual condition"),
			strings.Join(s.Residual, "; "))))
	}
	for _, sh := range s.Shape {
		var b strings.Builder
		switch sh.Kind {
		case "aggregate":
			fmt.Fprintf(&b, "The rows are then aggregated (%s) into about %s groups", sh.Detail, formatCount(sh.EstRows))
		case "vec-aggregate":
			fmt.Fprintf(&b, "The rows are aggregated straight off the column vectors into typed per-group accumulators (%s), about %s groups, without materializing a joined row", sh.Detail, formatCount(sh.EstRows))
		case "parallel-scan":
			fmt.Fprintf(&b, "The base scan is split into %d contiguous ranges, one per worker, each aggregating privately; the partial results merge in scan order, so the answer is identical at any worker count", sh.K)
		case "zone-skip":
			if sh.ActualRows >= 0 {
				fmt.Fprintf(&b, "The scan consulted %s and skipped %d of %d morsels whose min/max bounds disproved the filters without touching their payloads", sh.Detail, sh.ActualRows, sh.K)
			} else {
				fmt.Fprintf(&b, "The scan consults %s, skipping any of its %d morsels whose min/max bounds disprove the filters", sh.Detail, sh.K)
			}
			sentences = append(sentences, lexicon.Sentence(b.String()))
			continue
		case "sort":
			fmt.Fprintf(&b, "The result is sorted %s", sh.Detail)
		case "top-k":
			fmt.Fprintf(&b, "A bounded heap keeps only the top %d rows (%s) instead of sorting everything", sh.K, sh.Detail)
		case "limit":
			fmt.Fprintf(&b, "Output stops after the first %s", lexicon.CountNoun(sh.K, "row"))
		default:
			continue
		}
		if sh.ActualRows >= 0 {
			fmt.Fprintf(&b, " — %d seen", sh.ActualRows)
		}
		sentences = append(sentences, lexicon.Sentence(b.String()))
	}
	produced := s.ActualRows
	for i := len(s.Shape) - 1; i >= 0; i-- {
		sh := s.Shape[i]
		if sh.Kind == "zone-skip" || sh.Kind == "parallel-scan" {
			continue // scan bookkeeping, not an output stage
		}
		if sh.ActualRows >= 0 {
			produced = sh.ActualRows // shaping decides the final count
		}
		break
	}
	if produced >= 0 {
		sentences = append(sentences, lexicon.Sentence(fmt.Sprintf(
			"The query produced %s", lexicon.CountNoun(produced, "row"))))
	}
	for _, tip := range s.Tips {
		sentences = append(sentences, lexicon.Sentence("Tip: "+tip))
	}
	return strings.Join(sentences, " ")
}

// formatCount renders an estimate compactly: integers plainly, fractions
// with two decimals.
func formatCount(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.2f", f)
}
