package milp

// CheckWarmChildren is checkChildren for the external tests
// (warm_children_test.go), whose models come from internal/check and
// internal/core — packages that import this one.
func CheckWarmChildren(m *Model, opts Options) (sol Solution, children, infeasible int, worst float64, err error) {
	sol, cc, err := checkChildren(m, opts)
	return sol, cc.children, cc.infeasible, cc.worst, err
}
