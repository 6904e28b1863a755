package core

import (
	"fmt"
	"strings"

	"threesigma/internal/milp"
	"threesigma/internal/simulator"
)

// DebugBuildModel exposes the cycle MILP for dissection in tests/probes. The
// builder is the scheduler's own: it, its options and its model are valid
// until s builds again (the next DebugBuildModel or Cycle; see builder).
func DebugBuildModel(s *Scheduler, st *simulator.State) *builder { return s.buildModel(st) }

// DebugStateSizes reports the sizes of the scheduler's per-job state maps,
// so tests can assert that retiring a job (completion, removal, abandonment)
// actually releases its planning state instead of leaking it. memoEntries is
// the number of per-grid-slot term entries the memo pages hold.
func DebugStateSizes(s *Scheduler) map[string]int {
	var pages []*memoPage
	for _, pg := range s.memo.jobs {
		pages = append(pages, pg)
	}
	memoEntries := 0
	for _, pg := range pages {
		memoEntries += len(pg.eu[spacePref]) + len(pg.eu[spaceAny]) + len(pg.run)
	}
	return map[string]int{
		"memoEntries": memoEntries,
		"dists":       len(s.dists),
		"distVer":     len(s.distVer),
		"ue":          len(s.ue),
		"planned":     len(s.planned),
		"abandoned":   len(s.abandoned),
		"memo":        len(s.memo.jobs),
	}
}

// Model exposes the builder's MILP.
func (b *builder) Model() *milp.Model { return b.model }

// DebugLastModel returns the MILP of the scheduler's last cycle (nil before
// the first), valid until its next cycle.
func DebugLastModel(s *Scheduler) *milp.Model { return s.bld.model }

// DebugDescribe summarizes the builder's options vs a solution.
func DebugDescribe(b *builder, sol *milp.Solution, st *simulator.State) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  jobs considered=%d options=%d preemptvars=%d\n", len(b.jobs), len(b.options), len(b.preempts))
	slot0, deferred := 0, 0
	for i := range b.options {
		o := &b.options[i]
		if sol.Value(o.varIdx) > 0.5 {
			if o.slot == 0 {
				slot0++
			} else {
				deferred++
			}
		}
	}
	fmt.Fprintf(&sb, "  chosen slot0=%d deferred=%d\n", slot0, deferred)
	// Per-job option summary for first few jobs.
	byJob := map[int64][]string{}
	for i := range b.options {
		o := &b.options[i]
		mark := " "
		if sol.Value(o.varIdx) > 0.5 {
			mark = "*"
		}
		byJob[int64(o.j.ID)] = append(byJob[int64(o.j.ID)],
			fmt.Sprintf("%s(sp%d,t%d,u=%.1f)", mark, o.space, o.slot, o.util))
	}
	n := 0
	for _, j := range b.jobs {
		if n >= 8 {
			break
		}
		n++
		fmt.Fprintf(&sb, "  job%d %s k=%d opts=%v\n", j.ID, j.Class, j.Tasks, byJob[int64(j.ID)])
	}
	return sb.String()
}
