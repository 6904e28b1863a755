package milp

import (
	"container/heap"
	"math"
	"slices"
)

// Status reports the quality of a Solve result.
type Status uint8

const (
	// Optimal means the branch-and-bound proved optimality (within Gap).
	Optimal Status = iota
	// Feasible means an integral incumbent was found but the search stopped
	// early (on the node limit) before proving optimality.
	Feasible
	// Infeasible means the instance has no integral solution.
	Infeasible
	// NoSolution means the search stopped early without finding any
	// integral solution (and the instance was not proved infeasible).
	NoSolution
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	default:
		return "no-solution"
	}
}

// StopReason says why a search ended.
type StopReason uint8

const (
	// StopNone means the search ran out of open nodes: its answer is proved
	// (Status Optimal or Infeasible).
	StopNone StopReason = iota
	// StopNodes means the node budget (Options.MaxNodes) ran out first.
	StopNodes
)

// Options configures Solve.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes (default 4096);
	// Solve returns the best incumbent found when it runs out. It is the
	// search's only limit.
	MaxNodes int
	// Gap is the relative optimality gap at which search stops (default 1e-6).
	Gap float64
	// Seed, when non-nil, is a candidate integral assignment (length
	// NumVars) used as the initial incumbent if it is feasible. 3σSched
	// seeds each cycle with the previous cycle's schedule (§4.3.6).
	Seed []float64
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// WarmBasis, when non-nil, is a previous optimum's basis in the form of
	// Solution.RootBasis, used to crash-start the root relaxation. The
	// scheduler carries each cycle's root basis into the next cycle's solve
	// when the model structure is unchanged (DESIGN.md §12). The crash is
	// deterministic; a stale or mismatched basis degrades to extra simplex
	// pivots, never to an incorrect result.
	WarmBasis []int
}

// Solution is the result of Solve. The search is sequential, reads no clock
// and is a pure function of the model and options: the same inputs return
// the identical Solution every time.
type Solution struct {
	Status        Status
	Stopped       StopReason // why the search ended (StopNone: it was proved)
	X             []float64  // length NumVars; binaries are exact 0/1
	Objective     float64
	Nodes         int     // branch-and-bound nodes explored
	LPIters       int     // simplex iterations (pivots and bound flips) over all node relaxations
	ColdFallbacks int     // non-root nodes solved cold instead of from their parent's tableau
	Cutoffs       int     // children pruned when their bound fell to the incumbent mid re-solve (errCutoff)
	Work          int     // stored tableau entries the LP kernels touched: a deterministic cost count (DESIGN.md §6)
	Bound         float64 // best remaining upper bound at stop time
	// RootBasis is the root relaxation's optimal basis, the warm-start feed
	// for the next solve (Options.WarmBasis): RootBasis[i] is the variable
	// basic in LP row i (the slack of LP row i is NumVars+i; rows that
	// became bounds have none), and after those, ^v for each variable v
	// nonbasic at its upper bound, in ascending v, so a restore lands on the
	// optimum and not on the corner with every nonbasic variable at 0.
	RootBasis  []int
	WarmPivots int  // crash pivots applied from Options.WarmBasis, bound flips included (0 = cold root solve)
	SeedUsed   bool // Options.Seed was feasible and installed as the initial incumbent
}

// Value returns X[v], or 0 when no solution is present.
func (s *Solution) Value(v int) float64 {
	if s.X == nil || v >= len(s.X) {
		return 0
	}
	return s.X[v]
}

// bbNode is one open subproblem. Nodes and their fixed vectors are recycled
// through the arena's free list: one lives from the push that creates it to
// the pop that expands or prunes it.
type bbNode struct {
	fixed  []int8  // per-var fixing: -1 free, 0/1 fixed
	bound  float64 // parent LP bound (upper bound on this subtree)
	depth  int
	v      int  // the branching variable this node fixed (-1 at the root)
	branch int8 // the value it fixed it at
	parent int  // the parent's expansion number, the tag of its saved tableau
}

// node returns a recycled (or new) node whose fixed vector is a copy of
// fixed with variable v set to val (v < 0: all free, the root).
func (ar *lpArena) node(n int, fixed []int8, v int, val int8, bound float64, depth, parent int) *bbNode {
	var nd *bbNode
	if k := len(ar.free); k > 0 {
		nd, ar.free = ar.free[k-1], ar.free[:k-1]
	} else {
		nd = &bbNode{}
	}
	nd.fixed = grow(&nd.fixed, n)
	if v < 0 {
		for i := range nd.fixed {
			nd.fixed[i] = -1
		}
	} else {
		copy(nd.fixed, fixed)
		nd.fixed[v] = val
	}
	nd.bound, nd.depth, nd.v, nd.branch, nd.parent = bound, depth, v, val, parent
	return nd
}

// nodeHeap orders nodes depth-first (deepest first, "1" children pushed
// last so they pop first), with the LP bound as tie-break. Depth-first
// diving reaches integral leaves — and therefore incumbents — within a few
// nodes, which is what an anytime scheduler needs from its budgeted solves;
// bound-based pruning still applies. The order is also what lets a child
// find its parent's tableau in the slot one level up (lpSlot), and what
// makes the 0-branch the last of two siblings to pop (solveChild).
type nodeHeap []*bbNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].depth != h[j].depth {
		return h[i].depth > h[j].depth
	}
	//lint:allow floateq exact tie-break: equal-bits bounds fall through to the deterministic branch order
	if h[i].bound != h[j].bound {
		return h[i].bound > h[j].bound
	}
	return h[i].branch > h[j].branch // dive the 1-branch first
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*bbNode)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Solve optimizes the model. It never panics on well-formed input; numeric
// trouble degrades to the best incumbent with Status Feasible/NoSolution.
// Safe for concurrent use on distinct or shared (read-only) models.
func Solve(m *Model, opts Options) Solution {
	ar := getArena()
	defer putArena(ar)
	return solveIn(ar, m, opts)
}

// solveIn is Solve with all working memory drawn from ar.
func solveIn(ar *lpArena, m *Model, opts Options) Solution {
	sol := Solution{Status: NoSolution, Bound: math.Inf(1)}
	n := m.NumVars()
	if n == 0 {
		sol.Status = Optimal
		sol.Objective = m.objConst
		sol.X = nil
		return sol
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 4096
	}
	if opts.Gap <= 0 {
		opts.Gap = 1e-6
	}
	if opts.IntTol <= 0 {
		opts.IntTol = 1e-6
	}

	ar.work = 0
	var incumbent []float64
	incObj := math.Inf(-1)
	if opts.Seed != nil && m.Feasible(opts.Seed, feasTol) {
		incumbent = append([]float64(nil), opts.Seed...)
		incObj = m.Objective(incumbent)
		sol.SeedUsed = true
	}
	// updateIncumbent applies the deterministic acceptance rule: strictly
	// better objectives always win; objective ties (within 1e-12) go to the
	// lexicographically smallest solution vector, so the final incumbent
	// does not depend on the order in which equal-quality leaves were
	// discovered. x is copied: callers pass scratch.
	updateIncumbent := func(x []float64, obj float64) {
		better := obj > incObj+1e-12
		tie := !better && incumbent != nil && obj >= incObj-1e-12 && lexLess(x, incumbent)
		if !better && !tie {
			return
		}
		if obj > incObj {
			incObj = obj
		}
		incumbent = append(incumbent[:0], x...)
	}

	// The open heap lives in the arena: a local one would escape through
	// heap.Push's interface and cost an allocation per Solve.
	open := &ar.open
	*open = (*open)[:0]
	heap.Push(open, ar.node(n, nil, -1, 0, math.Inf(1), 0, -1))
	greedy := &ar.greedy
	greedy.reset(m)

	provedOpt := false
	gapTerm := func() float64 { return incObj + opts.Gap*math.Max(1, math.Abs(incObj)) }

	var node *bbNode
	for {
		if node != nil {
			ar.free = append(ar.free, node) // the previous iteration's, now dead
			node = nil
		}
		if open.Len() == 0 {
			provedOpt = true
			break
		}
		if sol.Nodes >= opts.MaxNodes {
			sol.Stopped = StopNodes
			break
		}
		node = heap.Pop(open).(*bbNode)
		if node.bound <= gapTerm() {
			// This subtree cannot beat the incumbent. Under the depth-first
			// ordering the popped node is not necessarily the best-bound
			// node, so this prunes rather than proves optimality.
			continue
		}
		sol.Nodes++
		seq := sol.Nodes
		// The root is solved cold, restored from opts.WarmBasis; every other
		// node from its parent's tableau, unless that fails (errColdStart).
		root := node.depth == 0
		lp := &ar.lp
		var res lpResult
		var objC float64
		var err error
		if root {
			res, objC, err = solveRelaxationOpt(ar, m, node.fixed, opts.WarmBasis, true)
		} else {
			// A child whose re-solve stops at the cutoff (errCutoff) is
			// pruned below like one whose optimum came out at or under it:
			// it still counts as a node, and its pivots as iterations.
			cutoff := gapTerm()
			if res, objC, err = ar.solveChild(m, node, cutoff); err == errColdStart {
				sol.ColdFallbacks++
				sol.LPIters += res.iters
				res, objC, err = solveRelaxationOpt(ar, m, node.fixed, nil, false)
			} else {
				if err == errCutoff {
					sol.Cutoffs++
				}
				lp = &ar.child
				if ar.onChild != nil {
					ar.onChild(node, seq, res, objC, cutoff, err)
				}
			}
		}
		sol.LPIters += res.iters
		if err != nil {
			continue // infeasible or numerically dead subtree: prune
		}
		if root {
			sol.RootBasis = res.basis
			sol.WarmPivots = res.warmed
		}
		lpObj := res.obj + objC
		if lpObj <= gapTerm() {
			continue
		}
		// Patch fixed values into the relaxation solution.
		x := res.x
		for v, val := range node.fixed {
			if val >= 0 {
				x[v] = float64(val)
			}
		}
		frac := mostFractionalBinary(m, x, opts.IntTol)
		if frac < 0 {
			// Integral: snap binaries and update incumbent. Snapping a
			// binary up from 1−ε can violate a tight row (e.g. an
			// exact-shares link row) by more than the feasibility
			// tolerance; in that case re-solve the continuous variables
			// with the binaries fixed at their snapped values.
			for v, k := range m.kinds {
				if k == Binary {
					x[v] = math.Round(x[v])
				}
			}
			if obj := m.Objective(x); m.Feasible(x, feasTol) {
				updateIncumbent(x, obj)
			} else if rx, ok := roundFixAndSolve(ar, m, x); ok {
				updateIncumbent(rx, m.Objective(rx))
			}
			continue
		}
		// Branch: keep the tableau for the children (before fix-and-solve
		// reuses the cold scratch). Rounding heuristics to tighten the
		// incumbent cheaply: greedy selection for all-binary models,
		// fix-and-solve for mixed models (round every binary to its nearest
		// integer, then let one more LP set the continuous variables).
		ar.saveSlot(node.depth, seq, lp, objC)
		if rx, ok := greedy.round(m, x, node.fixed); ok {
			updateIncumbent(rx, m.Objective(rx))
		} else if rx, ok := roundFixAndSolve(ar, m, x); ok {
			updateIncumbent(rx, m.Objective(rx))
		}
		for val := int8(0); val <= 1; val++ {
			heap.Push(open, ar.node(n, node.fixed, frac, val, lpObj, node.depth+1, seq))
		}
	}
	sol.Work = ar.work
	best := incObj
	for _, nd := range *open {
		if nd.bound > best {
			best = nd.bound
		}
	}
	ar.free = append(ar.free, *open...)
	*open = (*open)[:0]
	if incumbent == nil {
		if provedOpt {
			sol.Status = Infeasible
		}
		return sol
	}
	sol.X = incumbent
	sol.Objective = incObj
	if provedOpt {
		sol.Status = Optimal
		sol.Bound = incObj
	} else {
		sol.Status = Feasible
		sol.Bound = best
	}
	return sol
}

// lexLess reports whether a is lexicographically smaller than b (the
// deterministic incumbent tie-break).
func lexLess(a, b []float64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		//lint:allow floateq bitwise lexicographic order is the point: the incumbent tie-break must be exact to be deterministic
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// solveRelaxationOpt builds and solves the LP relaxation of m with the given
// variables fixed (substituted out) on the caller's arena. fixed is indexed
// by variable: -1 free, 0/1 fixed; it must have length NumVars. warm, when
// non-nil, crash-starts the simplex from a previous optimum's basis;
// wantBasis captures the optimal basis into the lpResult. Returns the LP
// result plus the objective constant contributed by fixed variables and the
// model constant. The solved LP is left in ar.lp.
func solveRelaxationOpt(ar *lpArena, m *Model, fixed []int8, warm []int, wantBasis bool) (lpResult, float64, error) {
	lp, objConst, err := newNodeLP(ar, m, fixed)
	if err != nil {
		return lpResult{}, 0, err
	}
	lp.warm, lp.wantBasis = warm, wantBasis
	res, err := lp.solve(0)
	return res, objConst, err
}

// newNodeLP assembles a node's relaxation in ar: the fixings are substituted
// straight into the tableau, and a row left with one free entry, on a
// binary with a positive coefficient, whose perturbed rhs over that
// coefficient is at least 1, becomes the binary's upper bound instead of a
// tableau row (the tightest such row where there are several). The bound is
// the row's own perturbed limit, so the LP is the one the row describes; a
// bound below 1 stays a row, so that fixing the binary at 1 still meets a
// row that proves the branch infeasible. The returned LP lives in ar and is
// valid until the arena's next relaxation. Neither pass over the model's
// nonzeros tests one against fixed[]: the fixings become 0/1 masks and a
// list of fixed columns once per node. The stored tableau is the one a
// per-nonzero test produces, bit for bit: b − c·0 is b, and a fixed column
// ends as 0 whether it was skipped or scattered and then cleared (DESIGN.md
// §6).
func newNodeLP(ar *lpArena, m *Model, fixed []int8) (*simplexLP, float64, error) {
	n := m.NumVars()
	// one[v] is 1 where v is fixed at 1, isFree[v] is 1 where v is free;
	// the objective constant picks up the cost of every variable fixed at 1.
	one := grow(&ar.one, n)
	isFree := grow(&ar.isFree, n)
	fixedCols := ar.fixedCols[:0]
	objConst := m.objConst
	for v, val := range fixed {
		if val < 0 {
			one[v], isFree[v] = 0, 1
			continue
		}
		one[v], isFree[v] = float64(val), 0
		fixedCols = append(fixedCols, v)
		if val == 1 {
			objConst += m.obj[v]
		}
	}
	ar.fixedCols = fixedCols
	// Pass 1: fold the fixed variables into each row's rhs. A row left with
	// no free variable is trivially satisfied (dropped) or proves the node
	// infeasible; one left with one free binary may become its bound; the
	// survivors size the tableau.
	rhs := grow(&ar.rhs, len(m.rhs))
	keep := grow(&ar.keep, len(m.rhs))
	ub := grow(&ar.ub, n)
	for v := range ub {
		ub[v] = math.Inf(1)
	}
	rows, nArt, nBound := 0, 0, 0
	lo := 0
	for ri, hi := range m.rowEnd {
		b := m.rhs[ri]
		nfree := 0
		for k := lo; k < hi; k++ {
			id := m.idx[k]
			b -= m.coef[k] * one[id]
			nfree += isFree[id]
		}
		rowLo := lo
		lo = hi
		if nfree == 0 {
			if b < -feasTol {
				return nil, 0, ErrInfeasible
			}
			continue
		}
		// Deterministic RHS perturbation: it breaks degenerate ties that
		// would otherwise stall the pricing rule, and the error it introduces
		// is far below the integrality and feasibility tolerances. It
		// relaxes the model row itself (indexed by the model row, applied
		// before orientation), so a node's relaxation is the same LP whether
		// it is assembled here or inherited from its parent's tableau
		// (solveChild).
		b += perturb * float64(1+ri%17)
		if nfree == 1 {
			k := rowLo
			for isFree[m.idx[k]] == 0 {
				k++
			}
			if v, c := m.idx[k], m.coef[k]; m.kinds[v] == Binary && c > 0 && b/c >= 1 {
				if math.IsInf(ub[v], 1) {
					nBound++
				}
				ub[v] = min(ub[v], b/c)
				continue
			}
		}
		if b < 0 {
			nArt++ // one artificial per negative-rhs row
		}
		rhs[rows], keep[rows] = b, ri
		rows++
	}
	lp := &ar.lp
	*lp = simplexLP{m: rows, n: n, nArt: nArt, nBound: nBound, ar: ar}
	lp.cols = n + rows + nArt
	for len(ub) < lp.cols {
		ub = append(ub, math.Inf(1)) // slacks, surplus and artificial columns
	}
	ar.ub, lp.ub = ub, ub
	lp.flip = growz(&ar.flip, lp.cols)
	lp.artCol0 = n + rows
	lp.w = n + nArt // the structurals and the surplus columns; slacks and artificials start basic
	lp.stride = lp.w + 1
	lp.tab = grow(&ar.tab, rows*lp.stride)
	lp.colVar = grow(&ar.colVar, lp.stride)
	lp.posOf = grow(&ar.posOf, lp.cols)
	lp.basis = grow(&ar.basis, rows)
	lp.nz = grow(&ar.nz, lp.stride)
	lp.nzv = grow(&ar.nzv, lp.stride)
	lp.cost = grow(&ar.cost, lp.cols)
	copy(lp.cost, m.obj)
	clear(lp.cost[n:])
	for _, v := range fixedCols {
		lp.cost[v] = 0
	}
	// Structural v is stored at position v, the surplus columns follow in
	// row order, the rhs is last.
	for v := 0; v < n; v++ {
		lp.colVar[v] = v
	}
	lp.colVar[lp.w] = lp.cols
	// Pass 2, row by row: clear the tableau row, scatter every entry of the
	// model row into it, then zero the fixed columns.
	art := lp.artCol0
	ar.work += rows * lp.stride
	for i, ri := range keep[:rows] {
		row := lp.row(i)
		clear(row)
		neg := rhs[i] < 0
		sign := 1.0
		if neg {
			sign = -1
		}
		lo, hi := 0, m.rowEnd[ri]
		if ri > 0 {
			lo = m.rowEnd[ri-1]
		}
		for k := lo; k < hi; k++ {
			row[m.idx[k]] += sign * m.coef[k]
		}
		ar.work += hi - lo
		for _, v := range fixedCols {
			row[v] = 0
		}
		row[lp.w] = sign * rhs[i]
		if neg {
			// Negated row is >=: surplus with coefficient -1, artificial +1
			// (basic).
			q := n + art - lp.artCol0
			row[q] = -1
			lp.colVar[q] = n + i
			lp.basis[i] = art
			art++
		} else {
			lp.basis[i] = n + i // the slack, +1 (basic)
		}
	}
	lp.indexColumns()
	return lp, objConst, nil
}

// mostFractionalBinary returns the binary variable whose value is farthest
// from {0, 1} (>tol), or -1 when every binary is within tol of 0 or 1. An LP
// value past 1 — rows may let a binary reach 2 — is as far from a binary's
// domain as it is from 1, not integral.
func mostFractionalBinary(m *Model, x []float64, tol float64) int {
	best, bestD := -1, tol
	for v, k := range m.kinds {
		if k != Binary {
			continue
		}
		d := math.Min(math.Abs(x[v]), math.Abs(x[v]-1))
		if d > bestD {
			best, bestD = v, d
		}
	}
	return best
}

// roundFixAndSolve rounds every binary to its nearest integer value and
// solves the remaining LP over the continuous variables. Used for mixed
// models (e.g. the exact-shares scheduling formulation), where greedy
// row-checking cannot assign the continuous allocation variables.
func roundFixAndSolve(ar *lpArena, m *Model, x []float64) ([]float64, bool) {
	fixed := grow(&ar.rfix, len(m.kinds))
	nBin := 0
	for v, k := range m.kinds {
		if k != Binary {
			fixed[v] = -1
			continue
		}
		nBin++
		if x[v] >= 0.5 {
			fixed[v] = 1
		} else {
			fixed[v] = 0
		}
	}
	if nBin == 0 || nBin == len(m.kinds) {
		return nil, false // pure-continuous or pure-binary: other paths apply
	}
	res, _, err := solveRelaxationOpt(ar, m, fixed, nil, false)
	if err != nil {
		return nil, false
	}
	out := res.x
	for v, val := range fixed {
		if val >= 0 {
			out[v] = float64(val)
		}
	}
	if !m.Feasible(out, feasTol) {
		return nil, false
	}
	return out, true
}

// greedyCtx holds the model-wide structures the greedy rounding needs — the
// column-to-rows index (compressed: column v's entries are
// entries[colStart[v]:colStart[v+1]], in row order) and per-call scratch —
// rebuilt once per Solve in the arena instead of once per node.
type greedyCtx struct {
	allBinary bool
	colStart  []int32
	entries   []greedyEntry
	activity  []float64 // per row: Σ coef over the variables switched on, in switch-on order
	absAct    []float64 // per row: Σ |coef| over the same
	out       []float64
	cands     []greedyCand
}

type greedyEntry struct {
	row  int
	coef float64
}

// greedyCand is a free binary: its index, LP value and objective
// coefficient (carried along so a comparison reads nothing else).
type greedyCand struct {
	v        int
	val, obj float64
}

// greedyCmp orders candidates by LP value descending, ties (within 1e-12)
// on objective coefficient descending. It is negative exactly when a goes
// first; that is all the sort reads.
func greedyCmp(a, b greedyCand) int {
	if math.Abs(a.val-b.val) > 1e-12 {
		if a.val > b.val {
			return -1
		}
		return 1
	}
	if a.obj > b.obj {
		return -1
	} else if a.obj < b.obj {
		return 1
	}
	return 0
}

// reset points the context at m.
func (g *greedyCtx) reset(m *Model) {
	g.allBinary = true
	for _, k := range m.kinds {
		if k != Binary {
			g.allBinary = false
			return
		}
	}
	n := m.NumVars()
	start := growz(&g.colStart, n+1)
	for _, id := range m.idx {
		start[id+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	g.entries = grow(&g.entries, len(m.idx))
	// Fill in row order, using start[v] as column v's cursor; the shift
	// below puts the offsets back.
	lo := 0
	for ri, hi := range m.rowEnd {
		for k := lo; k < hi; k++ {
			id := m.idx[k]
			g.entries[start[id]] = greedyEntry{ri, m.coef[k]}
			start[id]++
		}
		lo = hi
	}
	copy(start[1:], start[:n])
	start[0] = 0
	g.activity = grow(&g.activity, len(m.rhs))
	g.absAct = grow(&g.absAct, len(m.rhs))
	g.out = grow(&g.out, n)
}

// clearOut switches every variable off.
func (g *greedyCtx) clearOut() {
	clear(g.out)
	clear(g.activity)
	clear(g.absAct)
}

// apply switches variable v on in g.out when every row stays feasible.
func (g *greedyCtx) apply(m *Model, v int) bool {
	for _, e := range g.entries[g.colStart[v]:g.colStart[v+1]] {
		if g.activity[e.row]+e.coef > m.rhs[e.row]+feasTol {
			return false
		}
	}
	g.switchOn(v)
	return true
}

// switchOn sets g.out[v] to 1 and adds its column to the row activities.
func (g *greedyCtx) switchOn(v int) {
	for _, e := range g.entries[g.colStart[v]:g.colStart[v+1]] {
		g.activity[e.row] += e.coef
		g.absAct[e.row] += math.Abs(e.coef)
	}
	g.out[v] = 1
}

// feasible is m.Feasible(g.out, feasTol), read off the row activities where
// that is safe. g.out is 0/1, so only the rows can fail, and a row's
// activity holds the terms Feasible sums, added in another order: the two
// sums differ by rounding alone, less than 1e-9 of the row's scale (its
// |coefficient| total or its limit). A row whose activity is below its limit
// rhs+feasTol by more than that passes; any other row — near the limit, over
// it, or not a number — is summed again in row order, as Feasible sums it.
// The verdict is therefore Feasible's own.
func (g *greedyCtx) feasible(m *Model) bool {
	lo := 0
	for r, hi := range m.rowEnd {
		limit := m.rhs[r] + feasTol
		margin := 1e-9 * max(1, math.Abs(limit), g.absAct[r])
		if !(g.activity[r] < limit-margin) {
			lhs := 0.0
			for k := lo; k < hi; k++ {
				lhs += m.coef[k] * g.out[m.idx[k]]
			}
			if lhs > limit {
				return false
			}
		}
		lo = hi
	}
	return true
}

// round builds an integral solution from an LP point for all-binary models:
// binaries are considered in decreasing LP value and switched on whenever
// doing so keeps every row feasible. Returns ok=false for models with
// continuous variables. The returned slice is g's scratch, valid until the
// next call.
func (g *greedyCtx) round(m *Model, x []float64, fixed []int8) ([]float64, bool) {
	if !g.allBinary {
		return nil, false
	}
	g.clearOut()
	// Honor fixings first; a forced x=1 that is infeasible kills the heuristic.
	for v, val := range fixed {
		if val == 1 && !g.apply(m, v) {
			return nil, false
		}
	}
	cands := g.shortList(m, x, fixed)
	if cands == nil {
		cands = g.fullList(m, x, fixed)
	}
	// Relaxing variables (negative objective, e.g. preemption indicators)
	// that the LP chose enable placements that would otherwise violate
	// capacity; apply them first when the LP leaned on them.
	for _, cd := range cands {
		if m.obj[cd.v] < 0 && cd.val >= 0.5 {
			g.apply(m, cd.v)
		}
	}
	for _, cd := range cands {
		if cd.val < 1e-9 {
			break
		}
		if m.obj[cd.v] <= 0 {
			continue
		}
		g.apply(m, cd.v)
	}
	if !g.feasible(m) {
		return nil, false
	}
	return g.out, true
}

// fullList returns every free binary, sorted by greedyCmp.
func (g *greedyCtx) fullList(m *Model, x []float64, fixed []int8) []greedyCand {
	cands := g.cands[:0]
	for v, val := range fixed {
		if val < 0 {
			cands = append(cands, greedyCand{v, x[v], m.obj[v]})
		}
	}
	g.cands = cands
	slices.SortFunc(cands, greedyCmp)
	return cands
}

// shortList returns the free binaries with LP value ≥ 1e-9 — the only ones
// round can switch on — sorted by greedyCmp, in the order fullList puts
// them in; nil when that order could differ. Both of round's loops act
// only on the prefix of fullList's order that precedes the first value
// below 1e-9, so the two lists give round the same output whenever that
// prefix is this list.
//
// It is when every kept value compares strictly with every dropped one
// (no value is NaN or within 1e-12 of the cut, so a kept value exceeds a
// dropped one by more than greedyCmp's tie window) and greedyCmp orders
// the kept candidates strictly and transitively (any two lie more than
// 1e-12 apart, or have bit-equal values and ordered, unequal objectives).
// Then pdqsort puts the kept candidates first, in their one sorted order,
// whatever it does with the dropped ones: a partition sends the kept
// candidates below its pivot before it and every dropped one after a kept
// pivot, insertion sort moves a kept candidate ahead of every dropped
// one, and heap sort extracts every dropped one before any kept one.
// Ties and the window's intransitive near-ties have no one sorted order:
// pdqsort arranges them by the whole slice, and may arrange them
// differently on a shorter one. Both cases fall back to the full list.
func (g *greedyCtx) shortList(m *Model, x []float64, fixed []int8) []greedyCand {
	cands := g.cands[:0]
	for v, f := range fixed {
		if f >= 0 {
			continue
		}
		val := x[v]
		if !(math.Abs(val-1e-9) > 1e-12) { // near the cut, or NaN
			g.cands = cands
			return nil
		}
		if val >= 1e-9 {
			cands = append(cands, greedyCand{v, val, m.obj[v]})
		}
	}
	g.cands = cands
	slices.SortFunc(cands, greedyCmp)
	for i := 1; i < len(cands); i++ {
		a, b := cands[i-1], cands[i]
		if !(a.val-b.val > 1e-12 || math.Float64bits(a.val) == math.Float64bits(b.val) && a.obj > b.obj) {
			return nil
		}
	}
	return cands
}
