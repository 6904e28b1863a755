package milp

import (
	"container/heap"
	"math"
	"sort"
	"time"
)

// Status reports the quality of a Solve result.
type Status uint8

const (
	// Optimal means the branch-and-bound proved optimality (within Gap).
	Optimal Status = iota
	// Feasible means an integral incumbent was found but the search stopped
	// early (deadline or node limit) before proving optimality.
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
	// StopDeadline means Options.Deadline expired first.
	StopDeadline
)

// Options configures Solve.
type Options struct {
	// Deadline, if nonzero, bounds the wall-clock time; Solve returns the
	// best incumbent found when it expires.
	Deadline time.Time
	// MaxNodes bounds the number of branch-and-bound nodes (default 4096).
	MaxNodes int
	// Gap is the relative optimality gap at which search stops (default 1e-6).
	Gap float64
	// Seed, when non-nil, is a candidate integral assignment (length
	// NumVars) used as the initial incumbent if it is feasible. 3σSched
	// seeds each cycle with the previous cycle's schedule (§4.3.6).
	Seed []float64
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// Now, when non-nil, replaces time.Now as the solver's time source for
	// deadline checks and Elapsed measurement. Callers running on virtual
	// time (internal/simulator's VirtualClock) inject a clock that stands
	// still during the solve, so the Deadline can never expire mid-search
	// and budgeted solves become deterministic regardless of host load.
	Now func() time.Time
	// WarmBasis, when non-nil, is a previous optimum's basis (basis[i] =
	// column basic in LP row i, slacks at NumVars+i) used to crash-start the
	// root relaxation. The scheduler carries each cycle's root basis into the
	// next cycle's solve when the model structure is unchanged (DESIGN.md
	// §12). The crash is deterministic; a stale or mismatched basis degrades
	// to extra simplex pivots, never to an incorrect result.
	WarmBasis []int
}

// Solution is the result of Solve. The search is sequential and a pure
// function of the model and options, so runs that terminate on the node
// budget or on proved optimality return the identical Solution every time;
// deadline-terminated runs stop at a timing-dependent node and are exempt.
type Solution struct {
	Status        Status
	Stopped       StopReason // why the search ended (StopNone: it was proved)
	X             []float64  // length NumVars; binaries are exact 0/1
	Objective     float64
	Nodes         int           // branch-and-bound nodes explored
	LPIters       int           // simplex pivots over all node relaxations
	ColdFallbacks int           // non-root nodes solved cold instead of from their parent's tableau
	Bound         float64       // best remaining upper bound at stop time
	Elapsed       time.Duration // wall-clock solve time
	RootBasis     []int         // root relaxation's optimal basis (warm-start feed for the next solve)
	WarmPivots    int           // crash pivots applied from Options.WarmBasis (0 = cold root solve)
	SeedUsed      bool          // Options.Seed was feasible and installed as the initial incumbent
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
	ar := lpArenaPool.Get().(*lpArena)
	defer lpArenaPool.Put(ar)
	return solveIn(ar, m, opts)
}

// solveIn is Solve with all working memory drawn from ar.
func solveIn(ar *lpArena, m *Model, opts Options) Solution {
	if opts.Now == nil {
		//lint:allow wallclock default time source for standalone solves; deterministic callers inject a virtual clock via Options.Now
		opts.Now = time.Now
	}
	start := opts.Now()
	sol := Solution{Status: NoSolution, Bound: math.Inf(1)}
	n := m.NumVars()
	if n == 0 {
		sol.Status = Optimal
		sol.Objective = m.objConst
		sol.X = nil
		sol.Elapsed = opts.Now().Sub(start)
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

	deadline := func() bool {
		return !opts.Deadline.IsZero() && opts.Now().After(opts.Deadline)
	}

	open := ar.open[:0]
	heap.Push(&open, ar.node(n, nil, -1, 0, math.Inf(1), 0, -1))
	greedy := &ar.greedy
	greedy.reset(m)

	provedOpt := false
	pendingBound := math.Inf(-1) // bound of a node popped but not expanded when the search stops
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
		node = heap.Pop(&open).(*bbNode)
		if deadline() {
			// Popped but not expanded: remember its bound so it still
			// counts toward sol.Bound (a drained heap must not make a
			// budget-truncated solve look proved-optimal).
			sol.Stopped = StopDeadline
			pendingBound = node.bound
			break
		}
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
		} else if res, objC, err = ar.solveChild(m, node); err == errColdStart {
			sol.ColdFallbacks++
			sol.LPIters += res.iters
			res, objC, err = solveRelaxationOpt(ar, m, node.fixed, nil, false)
		} else {
			lp = &ar.child
			if ar.onChild != nil {
				ar.onChild(node, seq, res, objC, err)
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
			heap.Push(&open, ar.node(n, node.fixed, frac, val, lpObj, node.depth+1, seq))
		}
	}
	if node != nil {
		ar.free = append(ar.free, node)
	}

	sol.Elapsed = opts.Now().Sub(start)
	best := math.Max(incObj, pendingBound)
	for _, nd := range open {
		if nd.bound > best {
			best = nd.bound
		}
	}
	ar.free = append(ar.free, open...)
	ar.open = open[:0]
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

// solveRelaxation builds and solves the LP relaxation of m with the given
// variables fixed (substituted out). fixed is indexed by variable: -1 free,
// 0/1 fixed; it must have length NumVars. Returns the LP result plus the
// objective constant contributed by fixed variables and the model constant.
func solveRelaxation(m *Model, fixed []int8) (lpResult, float64, error) {
	ar := lpArenaPool.Get().(*lpArena)
	defer lpArenaPool.Put(ar)
	return solveRelaxationOpt(ar, m, fixed, nil, false)
}

// solveRelaxationOpt is solveRelaxation on the caller's arena with root-LP
// warm-start plumbing: warm, when non-nil, crash-starts the simplex from a
// previous optimum's basis; wantBasis captures the optimal basis into the
// lpResult. The solved LP is left in ar.lp.
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
// straight into the tableau. The returned LP lives in ar and is valid until
// the arena's next relaxation. Neither pass over the model's nonzeros tests
// one against fixed[]: the fixings become 0/1 masks and a list of fixed
// columns once per node. The stored tableau is the one a per-nonzero test
// produces, bit for bit: b − c·0 is b, and a fixed column ends as 0 whether
// it was skipped or scattered and then cleared (DESIGN.md §6).
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
	// infeasible; the survivors size the tableau.
	rhs := grow(&ar.rhs, len(m.rhs))
	keep := grow(&ar.keep, len(m.rhs))
	rows, nArt := 0, 0
	lo := 0
	for ri, hi := range m.rowEnd {
		b := m.rhs[ri]
		nfree := 0
		for k := lo; k < hi; k++ {
			id := m.idx[k]
			b -= m.coef[k] * one[id]
			nfree += isFree[id]
		}
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
		if b < 0 {
			nArt++ // one artificial per negative-rhs row
		}
		rhs[rows], keep[rows] = b, ri
		rows++
	}
	lp := &ar.lp
	*lp = simplexLP{m: rows, n: n, nArt: nArt, ar: ar}
	lp.cols = n + rows + nArt
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
// from integral (>tol), or -1 when all binaries are integral.
func mostFractionalBinary(m *Model, x []float64, tol float64) int {
	best, bestD := -1, tol
	for v, k := range m.kinds {
		if k != Binary {
			continue
		}
		f := x[v] - math.Floor(x[v])
		d := math.Min(f, 1-f)
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
	activity  []float64
	out       []float64
	order     greedyOrder
}

type greedyEntry struct {
	row  int
	coef float64
}

type greedyCand struct {
	v   int
	val float64
}

// greedyOrder sorts candidates by LP value descending, ties (within 1e-12)
// on objective coefficient descending.
type greedyOrder struct {
	cands []greedyCand
	obj   []float64
}

func (o *greedyOrder) Len() int      { return len(o.cands) }
func (o *greedyOrder) Swap(i, j int) { o.cands[i], o.cands[j] = o.cands[j], o.cands[i] }
func (o *greedyOrder) Less(i, j int) bool {
	a, b := o.cands[i], o.cands[j]
	if math.Abs(a.val-b.val) > 1e-12 {
		return a.val > b.val
	}
	return o.obj[a.v] > o.obj[b.v]
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
	g.out = grow(&g.out, n)
	g.order.obj = m.obj
}

// apply switches variable v on in g.out when every row stays feasible.
func (g *greedyCtx) apply(m *Model, v int) bool {
	col := g.entries[g.colStart[v]:g.colStart[v+1]]
	for _, e := range col {
		if g.activity[e.row]+e.coef > m.rhs[e.row]+feasTol {
			return false
		}
	}
	for _, e := range col {
		g.activity[e.row] += e.coef
	}
	g.out[v] = 1
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
	for i := range g.out {
		g.out[i] = 0
	}
	for i := range g.activity {
		g.activity[i] = 0
	}
	// Honor fixings first; a forced x=1 that is infeasible kills the heuristic.
	for v, val := range fixed {
		if val == 1 && !g.apply(m, v) {
			return nil, false
		}
	}
	cands := g.order.cands[:0]
	for v, val := range fixed {
		if val < 0 {
			cands = append(cands, greedyCand{v, x[v]})
		}
	}
	g.order.cands = cands
	sort.Sort(&g.order)
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
	if !m.Feasible(g.out, feasTol) {
		return nil, false
	}
	return g.out, true
}
