package core

import (
	"fmt"
	"sort"

	"threesigma/internal/dist"
	"threesigma/internal/job"
)

// SchedState is the outcome-relevant per-job scheduler state carried by
// control-plane snapshot records (DESIGN.md §14). Only state that changes
// decisions is included: the cached submission-time distributions (the
// predictor keeps learning from completions, so re-estimating after a
// restore would diverge from the donor), the §4.2.1 under-estimate
// extensions, the previous cycle's plans (MILP warm-start seeds), and the
// abandoned markers. The memo, incremental-model buffers, and stats are
// deliberately absent — they are performance state, guaranteed
// outcome-neutral by the incremental re-solve invariant.
type SchedState struct {
	Dists     map[job.ID]dist.State `json:"dists,omitempty"`
	UE        map[job.ID]UEState    `json:"ue,omitempty"`
	Planned   map[job.ID]PlanState  `json:"planned,omitempty"`
	Abandoned []job.ID              `json:"abandoned,omitempty"`
}

// UEState mirrors ueState for serialization.
type UEState struct {
	Bumps     int     `json:"bumps"`
	ExtFinish float64 `json:"ext_finish"`
}

// PlanState mirrors plan for serialization.
type PlanState struct {
	Space int8    `json:"space"`
	Start float64 `json:"start"`
}

// ExportState captures the scheduler's outcome-relevant per-job state.
func (s *Scheduler) ExportState() (*SchedState, error) {
	st := &SchedState{
		Dists:   make(map[job.ID]dist.State, len(s.dists)),
		UE:      make(map[job.ID]UEState, len(s.ue)),
		Planned: make(map[job.ID]PlanState, len(s.planned)),
	}
	//lint:allow detrange map-to-map copy; the JSON encoder sorts map keys, so the serialized snapshot is order-independent
	for id, d := range s.dists {
		ds, err := dist.Snapshot(d)
		if err != nil {
			return nil, fmt.Errorf("core: export job %d distribution: %w", id, err)
		}
		st.Dists[id] = ds
	}
	//lint:allow detrange map-to-map copy; order-independent
	for id, ue := range s.ue {
		st.UE[id] = UEState{Bumps: ue.bumps, ExtFinish: ue.extFinish}
	}
	//lint:allow detrange map-to-map copy; order-independent
	for id, p := range s.planned {
		st.Planned[id] = PlanState{Space: p.space, Start: p.start}
	}
	for id := range s.abandoned {
		st.Abandoned = append(st.Abandoned, id)
	}
	sort.Slice(st.Abandoned, func(i, k int) bool { return st.Abandoned[i] < st.Abandoned[k] })
	return st, nil
}

// ImportState replaces the scheduler's per-job state with an exported
// snapshot. The memo and incremental-model state reset to cold: the first
// cycle after a restore is not quiet, so it solves without the donor's warm
// basis or previous solution — accelerators only, which the incremental
// re-solve invariant guarantees leave the outcome the donor's.
func (s *Scheduler) ImportState(st *SchedState) error {
	dists := make(map[job.ID]dist.Distribution, len(st.Dists))
	//lint:allow detrange map-to-map copy; order-independent
	for id, ds := range st.Dists {
		d, err := dist.FromState(ds)
		if err != nil {
			return fmt.Errorf("core: import job %d distribution: %w", id, err)
		}
		dists[id] = d
	}
	s.dists = dists
	s.distVer = make(map[job.ID]uint64, len(dists))
	s.ue = make(map[job.ID]*ueState, len(st.UE))
	//lint:allow detrange map-to-map copy; order-independent
	for id, ue := range st.UE {
		s.ue[id] = &ueState{bumps: ue.Bumps, extFinish: ue.ExtFinish}
	}
	s.planned = make(map[job.ID]plan, len(st.Planned))
	//lint:allow detrange map-to-map copy; order-independent
	for id, p := range st.Planned {
		s.planned[id] = plan{space: p.Space, start: p.Start}
	}
	s.abandoned = make(map[job.ID]bool, len(st.Abandoned))
	for _, id := range st.Abandoned {
		s.abandoned[id] = true
	}
	s.memo = newBuildMemo()
	s.inc = incState{jobsDirty: true}
	return nil
}
