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
//
// Idle arenas wait in a free list (getArena, putArena), not a sync.Pool: a
// pool drops its contents at every garbage collection, and each dropped
// arena is regrown — tableaus, saved slots and all — by the next Solve. The
// list holds at most as many arenas as Solves ever ran at once.
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
	child  simplexLP
	childX []float64 // the child's solution vector
	slots  []lpSlot
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

// arenas is the free list of idle arenas.
var arenas struct {
	mu   sync.Mutex
	free []*lpArena // guarded by mu
}

// getArena takes an idle arena, or makes one.
func getArena() *lpArena {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	n := len(arenas.free)
	if n == 0 {
		return &lpArena{}
	}
	ar := arenas.free[n-1]
	arenas.free = arenas.free[:n-1]
	return ar
}

// putArena returns an arena to the free list.
func putArena(ar *lpArena) {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	arenas.free = append(arenas.free, ar)
}

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
