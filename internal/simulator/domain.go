package simulator

import (
	"math"

	"threesigma/internal/job"
)

// Domain is one scheduling domain: a contiguous range of machine-type
// partitions [Lo, Hi) owned by a single per-shard scheduler (see
// internal/shard and DESIGN.md §13). Contiguous ranges make the domain
// layout a pure function of (partition count, shard count) — seed-stable
// and identical on every run and every host.
type Domain struct {
	Lo, Hi int // partition index range, half-open
}

// NumParts returns the number of partitions in the domain.
func (d Domain) NumParts() int { return d.Hi - d.Lo }

// Contains reports whether partition p belongs to the domain.
func (d Domain) Contains(p int) bool { return p >= d.Lo && p < d.Hi }

// PartitionDomains splits nParts partitions into n contiguous domains,
// remainder spread over the first domains (the same convention NewCluster
// uses for nodes). n is clamped to [1, nParts]: a domain must own at least
// one partition.
func PartitionDomains(nParts, n int) []Domain {
	if n < 1 {
		n = 1
	}
	if n > nParts {
		n = nParts
	}
	doms := make([]Domain, n)
	base, rem := nParts/n, nParts%n
	lo := 0
	for i := range doms {
		size := base
		if i < rem {
			size++
		}
		doms[i] = Domain{Lo: lo, Hi: lo + size}
		lo += size
	}
	return doms
}

// runFingerprint is the per-running-job slice of a domain fingerprint. Its
// allocation is allocs[lo:hi] of the fingerprint's slab.
type runFingerprint struct {
	id        job.ID
	startBits uint64
	onPref    bool
	lo, hi    int
}

// domainFingerprint captures everything about a domain sub-snapshot that the
// scheduler's incremental re-solve path may depend on. Epochs derive from a
// deep comparison — never a hash — because a fingerprint collision would
// silently hand the scheduler a stale patched model.
//
// Nothing here is allocated once the storage has grown to the domain's
// largest snapshot: capture refills the slices (running allocations go into
// one flat slab), and the membership sets the delta categorization needs are
// cleared and refilled, never remade.
type domainFingerprint struct {
	init    bool
	epoch   uint64
	free    Alloc
	parts   []int
	pending []job.ID
	running []runFingerprint
	allocs  []int // slab behind running[*].lo:hi

	// Scratch of diff's slow path.
	prevPend map[job.ID]bool
	prevRun  map[job.ID]int // job -> index in running
	curPend  map[job.ID]bool
	curRun   map[job.ID]bool
}

// DomainEpochs assigns per-domain epochs and deltas to constructed
// sub-snapshots. The engine's global Epoch advances on *any* mutation, which
// would mark every domain dirty whenever one domain saw an event; per-domain
// epochs instead advance only when the domain's own visible state changed,
// so a quiet domain keeps its incremental patch / warm-basis / solution-reuse
// eligibility while a neighbor churns (DESIGN.md §13).
//
// Each domain's fingerprint is its own state: Observe calls for distinct
// domains may run concurrently.
type DomainEpochs struct {
	doms []domainFingerprint
}

// NewDomainEpochs returns a tracker for n domains.
func NewDomainEpochs(n int) *DomainEpochs {
	return &DomainEpochs{doms: make([]domainFingerprint, n)}
}

// Observe deep-compares the domain-i sub-snapshot against the previous cycle's
// fingerprint, advances the domain epoch if anything visible changed, and
// fills st.Epoch and st.Delta in place. The Delta counters are categorized
// best-effort for observability; correctness relies only on Epoch, exactly as
// with the engine's global snapshot. In steady state it allocates nothing.
func (de *DomainEpochs) Observe(i int, st *State) {
	fp := &de.doms[i]
	changed, delta := fp.diff(st)
	if !fp.init || changed {
		fp.epoch++
		fp.capture(st)
		fp.init = true
	}
	st.Epoch = fp.epoch
	st.Delta = delta
}

// runAlloc returns the recorded allocation of running entry k.
func (fp *domainFingerprint) runAlloc(k int) []int {
	r := &fp.running[k]
	return fp.allocs[r.lo:r.hi]
}

// same reports whether the sub-snapshot is the fingerprint itself: the same
// free and partition vectors, the same pending jobs in the same order, and
// the same running jobs in the same order with the same start, placement and
// allocation. This is the quiet cycle, and it needs no membership sets.
func (fp *domainFingerprint) same(st *State) bool {
	if !allocEqual(fp.free, st.Free) || !intsEqual(fp.parts, st.Cluster.Partitions) ||
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
			prev.onPref != r.OnPreferred || !intsEqual(fp.runAlloc(k), r.Alloc) {
			return false
		}
	}
	return true
}

// diff reports whether the sub-snapshot differs from the fingerprint and
// summarizes the difference.
func (fp *domainFingerprint) diff(st *State) (bool, Delta) {
	if !fp.init {
		return true, Delta{Submitted: len(st.Pending)}
	}
	if fp.same(st) {
		return false, Delta{}
	}
	var d Delta
	changed := false
	if !allocEqual(fp.free, st.Free) || !intsEqual(fp.parts, st.Cluster.Partitions) {
		changed = true
		d.NodeEvents++
	}
	// Pending / running membership moves.
	prevPend := resetSet(&fp.prevPend)
	for _, id := range fp.pending {
		prevPend[id] = true
	}
	prevRun := resetSet(&fp.prevRun)
	for ri, r := range fp.running {
		prevRun[r.id] = ri
	}
	curPend := resetSet(&fp.curPend)
	orderChanged := len(st.Pending) != len(fp.pending)
	for pi, j := range st.Pending {
		curPend[j.ID] = true
		if !orderChanged && fp.pending[pi] != j.ID {
			orderChanged = true
		}
		if !prevPend[j.ID] {
			if _, was := prevRun[j.ID]; was {
				d.Preempted++
			} else {
				d.Submitted++
			}
		}
	}
	if orderChanged {
		changed = true
	}
	for _, id := range fp.pending {
		if !curPend[id] {
			changed = true
			// Started if it shows up running now, Removed otherwise;
			// resolved below once the running set is scanned.
		}
	}
	curRun := resetSet(&fp.curRun)
	runChanged := len(st.Running) != len(fp.running)
	for ri, r := range st.Running {
		curRun[r.Job.ID] = true
		pi, was := prevRun[r.Job.ID]
		if !was {
			runChanged = true
			if prevPend[r.Job.ID] {
				d.Started++
			} else {
				d.Submitted++ // appeared directly as running (e.g. spanning attach)
			}
			continue
		}
		if !runChanged && pi != ri {
			runChanged = true
		}
		prev := &fp.running[pi]
		if prev.startBits != math.Float64bits(r.Start) || prev.onPref != r.OnPreferred ||
			!intsEqual(fp.runAlloc(pi), r.Alloc) {
			runChanged = true
			d.Preempted++ // restarted / reallocated in place
		}
	}
	if runChanged {
		changed = true
	}
	for _, r := range fp.running {
		if !curRun[r.id] && !curPend[r.id] {
			d.Completed++
		}
	}
	for _, id := range fp.pending {
		if !curPend[id] && !curRun[id] {
			d.Removed++
		}
	}
	if d != (Delta{}) {
		changed = true
	}
	return changed, d
}

// resetSet empties *m for reuse, making it on first use.
func resetSet[V any](m *map[job.ID]V) map[job.ID]V {
	if *m == nil {
		*m = make(map[job.ID]V)
	}
	clear(*m)
	return *m
}

// capture records the sub-snapshot as the new fingerprint in the previous
// cycle's storage.
func (fp *domainFingerprint) capture(st *State) {
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

func allocEqual(a, b Alloc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
