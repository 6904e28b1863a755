package core

import (
	"math"
	"slices"

	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// runFingerprint is the per-running-job part of a snapshot fingerprint. Its
// allocation is allocs[lo:hi] of the fingerprint's slab.
type runFingerprint struct {
	id        job.ID
	startBits uint64
	onPref    bool
	lo, hi    int
}

// fingerprint is everything of the last snapshot the scheduler built from
// that a cycle's model may depend on besides the clock and the scheduler's
// own per-job state: the free and partition vectors, the pending jobs in
// order, and the running jobs in order with their start, placement and
// allocation. It is a deep copy compared field by field — never a hash,
// because a collision would hand the solver a stale model.
//
// Nothing is allocated once the storage has grown to the largest snapshot:
// capture refills the slices, the running allocations going into one slab.
type fingerprint struct {
	free    simulator.Alloc
	parts   []int
	pending []job.ID
	running []runFingerprint
	allocs  []int // slab behind running[*].lo:hi
}

// same reports whether st shows exactly what the fingerprint recorded.
func (fp *fingerprint) same(st *simulator.State) bool {
	if !slices.Equal(fp.free, st.Free) || !slices.Equal(fp.parts, st.Cluster.Partitions) ||
		len(fp.pending) != len(st.Pending) || len(fp.running) != len(st.Running) {
		return false
	}
	for k, j := range st.Pending {
		if fp.pending[k] != j.ID {
			return false
		}
	}
	for k, r := range st.Running {
		prev := &fp.running[k]
		if prev.id != r.Job.ID || prev.startBits != math.Float64bits(r.Start) ||
			prev.onPref != r.OnPreferred || !slices.Equal(fp.allocs[prev.lo:prev.hi], r.Alloc) {
			return false
		}
	}
	return true
}

// capture records st as the fingerprint, in the previous snapshot's storage.
func (fp *fingerprint) capture(st *simulator.State) {
	fp.free = append(fp.free[:0], st.Free...)
	fp.parts = append(fp.parts[:0], st.Cluster.Partitions...)
	fp.pending = fp.pending[:0]
	for _, j := range st.Pending {
		fp.pending = append(fp.pending, j.ID)
	}
	fp.running, fp.allocs = fp.running[:0], fp.allocs[:0]
	for _, r := range st.Running {
		lo := len(fp.allocs)
		fp.allocs = append(fp.allocs, r.Alloc...)
		fp.running = append(fp.running, runFingerprint{
			id:        r.Job.ID,
			startBits: math.Float64bits(r.Start),
			onPref:    r.OnPreferred,
			lo:        lo,
			hi:        len(fp.allocs),
		})
	}
}
