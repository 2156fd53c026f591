package engine

// useOracle routes every SELECT of ex and of the engines sharing its state —
// subqueries and view bodies included — every UPDATE/DELETE WHERE and every
// UPDATE SET expression to the interpreter (interp_test.go) when on, and back
// to the planned pipeline when off. A SELECT the interpreter answers reports
// no plan.
func (ex *Engine) useOracle(on bool) {
	if on {
		ex.st.oracle.Store(&oracle{selectRows: interpSelect, positions: interpPositions, set: interpSet})
	} else {
		ex.st.oracle.Store(nil)
	}
}

// SetZoneMapsEnabled toggles the zone-map layer as a whole (default on):
// morsel pruning plus the encoded scan fast paths that ride on the same
// metadata (frame-of-reference delta reads, sorted-dictionary rank compares).
// Off reverts every scan to testing each row against plain payloads —
// differential tests compare the two executions.
func (ex *Engine) SetZoneMapsEnabled(on bool) { ex.st.noZoneMaps.Store(!on) }
