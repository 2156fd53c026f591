package engine

// useOracle routes every SELECT of ex and of the engines sharing its state —
// subqueries and view bodies included — and every UPDATE/DELETE WHERE to the
// interpreter (interp_test.go) when on, and back to the planned pipeline when
// off. A SELECT the interpreter answers reports no plan.
func (ex *Engine) useOracle(on bool) {
	if on {
		ex.st.oracle.Store(&oracle{selectRows: interpSelect, positions: interpPositions})
	} else {
		ex.st.oracle.Store(nil)
	}
}
