package core

import (
	"slices"

	"threesigma/internal/job"
)

// buildScratch is the working memory of one scheduler's cycle: what
// buildModel, selectPending, seed and extract need for the length of a cycle
// and used to allocate afresh. It is reset at the top of every build, grows
// lazily to the largest cycle seen, and is empty in a new scheduler. Nothing
// in it is zeroed on reuse — every consumer writes what it reads — and under
// Config.Checks the arenas are poisoned at reset (NaN floats, −1 indices), so
// a read of something this cycle never wrote trips checkOption,
// checkCapacityRows, checkFinite or AddLE's unknown-variable panic instead
// of quietly reusing last cycle's number.
type buildScratch struct {
	// Arenas for what is sized once and written by index: the slot grid, the
	// capacity tables, survival curves, every option's shares, rc and
	// allocVars, a demand row's ones, the seed vector, extract's free nodes.
	f64  bump[float64]
	ints bump[int]

	// Filled by append from length 0, so never read before written.
	slo, be []*job.Job // selectPending's sort buffers
	jobVars []int      // one job's option indicators (its demand row)
	rowIdx  []int      // a link or capacity row being assembled
	rowCoef []float64  //
	chosen  []*option  // extract's chosen options
}

// bump is a bump allocator. A slice it handed out stays valid, and its own,
// when a later take outgrows the backing array (append semantics: the array
// is replaced, what was handed out keeps pointing into the old one).
type bump[T any] struct{ buf []T }

func (a *bump[T]) take(n int) []T {
	lo := len(a.buf)
	a.buf = slices.Grow(a.buf, n)[:lo+n]
	return a.buf[lo : lo+n : lo+n]
}

// reset starts a new cycle, with the whole backing array set to `with` when
// poison is asked for.
func (a *bump[T]) reset(poison bool, with T) {
	a.buf = a.buf[:cap(a.buf)]
	if poison {
		for i := range a.buf {
			a.buf[i] = with
		}
	}
	a.buf = a.buf[:0]
}
