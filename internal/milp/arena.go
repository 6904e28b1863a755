package milp

import "sync"

// lpArena is the reusable working memory of one Solve: the condensed tableau
// and simplex work vectors every cold relaxation refills, the saved tableaus
// children re-solve from, and the branch-and-bound's own scratch (recycled
// nodes, the open heap, the greedy rounding index). Branch-and-bound solves
// dozens of structurally similar relaxations per cycle; without reuse,
// allocator and GC time dominate the solver profile (the seed profile spent
// ~40% of Fig-1 wall time in mallocgc/growslice). A Solve holds one arena
// from start to finish and nothing in it outlives the call: everything
// returned to the caller (Solution.X, RootBasis) is copied out. Concurrent
// Solves (one per shard domain) hold distinct arenas.
type lpArena struct {
	lp   simplexLP // the current cold relaxation (root, fallback, fix-and-solve)
	rhs  []float64 // substituted rhs per kept row
	keep []int     // model row index per kept row

	one       []float64 // the node's fixings as masks: 1 where fixed at 1,
	isFree    []int     // 1 where free,
	fixedCols []int     // and the fixed columns listed

	tab    []float64 // condensed tableau backing (m × (w+1)), each row cleared as it is filled
	colVar []int
	posOf  []int
	zrow   []float64
	basis  []int
	cost   []float64
	p1     []float64 // phase-1 objective
	wt     []float64 // Devex reference weights
	nz     []int32   // pivot row's nonzero positions
	nzv    []float64 // and their scaled values
	cand   []uint64  // dualEnter's candidate variables, one bit each

	// Warm-restore scratch: revert snapshot (tableau, then basis and colVar,
	// before forced pivots) and the desired column flags.
	save    []float64
	saveIdx []int
	desired []bool

	// Warm children (dual.go): the child being re-solved and one saved
	// tableau per depth. Each owns its storage; saveSlot and the last child
	// of a slot swap storage instead of copying, and nothing shrinks.
	child simplexLP
	slots []lpSlot
	// onChild, when set (tests), sees every child re-solved from its
	// parent's tableau: the node, its expansion number, its result and
	// objective constant; trace, when set, records the child's pivots.
	onChild func(nd *bbNode, seq int, res lpResult, objConst float64, err error)
	trace   *[]pivotRec

	// Branch-and-bound scratch.
	open   nodeHeap
	free   []*bbNode // recycled nodes, fixed vectors attached
	rfix   []int8    // roundFixAndSolve's fixing vector
	greedy greedyCtx
}

var lpArenaPool = sync.Pool{New: func() interface{} { return &lpArena{} }}

// grow returns a length-n slice from buf, reallocating only when its capacity
// is short. The contents are unspecified; callers must overwrite (or ask
// growz for zeroes) before reading.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// growz is grow with every element zeroed.
func growz[T any](buf *[]T, n int) []T {
	s := grow(buf, n)
	clear(s)
	return s
}
