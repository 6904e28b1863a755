package milp

// CheckWarmChildren is checkChildren for the external tests
// (warm_children_test.go), whose models come from internal/check and
// internal/core — packages that import this one.
func CheckWarmChildren(m *Model, opts Options) (sol Solution, children, infeasible int, worst float64, err error) {
	sol, cc, err := checkChildren(m, opts)
	return sol, cc.children, cc.infeasible, cc.worst, err
}

// ChildTraceCoverage is childCoverage for the external tests.
type ChildTraceCoverage struct {
	Children, Infeasible, Branch0, Branch1, PivotedOut int
}

// CheckChildTraces is checkChildTraces (kernel_test.go) for the external
// tests.
func CheckChildTraces(m *Model, opts Options) (ChildTraceCoverage, error) {
	_, c, err := checkChildTraces(m, opts)
	return ChildTraceCoverage{c.children, c.infeasible, c.branch[0], c.branch[1], c.pivotedOut}, err
}
