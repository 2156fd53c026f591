package planner

import "repro/internal/storage"

// This file is the planner's share of the morsel-parallel aggregation scan:
// its cost. Whether a grouped query runs the engine's fused vectorized
// pipeline, and whether its aggregates merge exactly across workers, is
// decided by the engine's compiler — the code that then runs — which turns
// the plan's aggregate step into vec-aggregate and adds the parallel-scan
// step itself. The planner only says when a base table is large enough for
// fanning the scan out to pay.

const (
	// MorselRows is the number of base-table positions one morsel covers in a
	// parallel scan. Workers claim morsels from a shared atomic cursor and
	// merge their partial aggregation states in morsel order, which keeps
	// parallel output byte-identical to serial execution. It equals the
	// storage layer's zone-map granularity so a zone summary decides a whole
	// morsel at once.
	MorselRows = storage.ZoneRows

	// ParallelScanMinRows is the base-table size below which a morsel-driven
	// scan is not worth scheduling.
	ParallelScanMinRows = 2048
)

// ParallelScanStep returns the parallel-scan shape step for a base step worth
// fanning out — a full scan of at least ParallelScanMinRows rows — and nil for
// any other. The engine asks once a grouped query has compiled onto the fused
// pipeline with exactly mergeable aggregates, and puts the step in front of
// the aggregate step when it schedules the workers.
func ParallelScanStep(first *Step) *ShapeStep {
	if first.Access != ScanFull || first.TableRows < ParallelScanMinRows {
		return nil
	}
	return &ShapeStep{
		Kind:       ShapeParallelScan,
		K:          MorselRows,
		EstRows:    first.EstRows,
		ActualRows: -1,
	}
}
