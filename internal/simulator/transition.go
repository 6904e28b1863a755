package simulator

import (
	"cmp"
	"math"
	"slices"

	"threesigma/internal/faults"
	"threesigma/internal/job"
	"threesigma/internal/stats"
)

// RunEnd is one attempt's end: its completion, or an injected crash.
type RunEnd struct {
	ID    job.ID  `json:"id"`
	RunID int64   `json:"run_id"`
	At    float64 `json:"at"`
	Crash bool    `json:"crash,omitempty"`
}

// Arrived and Due are the boundary rule: the window of the cycle at now
// holds the arrivals stamped at or before now, and the ends and fault events
// strictly before it (one at exactly now belongs to the next window).
func Arrived(submit, now float64) bool { return submit <= now }
func Due(at, now float64) bool         { return at < now }

// DueFaults returns how many events at the head of a time-ordered fault
// schedule are in the window of the cycle at now.
func DueFaults(evs []faults.Event, now float64) int {
	n := 0
	for n < len(evs) && Due(evs[n].Time, now) {
		n++
	}
	return n
}

// Applied is what a window did beyond the engine's records, for a driver
// that keeps books of its own; the next Apply reuses it.
type Applied struct {
	Last      float64  // time of the last event, 0 for none
	Completed []job.ID // runs completed (JobCompleted was called)
	Crashed   []job.ID // runs an injected crash ended
	Evicted   []job.ID // runs node failures evicted
	FailedOut []job.ID // of Crashed and Evicted, the jobs out of retries (JobRemoved was called)
	Refused   []job.ID // arrivals the engine refused
}

// Transition applies a cycle's events and starts to an engine for Sched: the
// one copy of the cycle transition, which Sim and internal/service both run.
type Transition struct {
	Sched Scheduler
	Inj   *faults.Injector // nil: no crashes, stragglers or node faults
	// RealCluster, when non-nil, emulates RC256: starts are delayed by
	// placementDelay, runtimes stretched by jitter drawn from it.
	RealCluster stats.Rand

	out Applied
}

// Apply applies a cycle window's timed events to eng — arrivals, each at its
// Submit stamp, and fault events, both in time order, and run ends in any
// order, which it sorts in place — in time order; at equal times an arrival
// goes first, then a fault event, then ends in launch (RunID) order. Stale
// ends — the attempt was preempted or cancelled since — change nothing.
func (t *Transition) Apply(eng *Engine, arrivals []*job.Job, evs []faults.Event, ends []RunEnd) *Applied {
	out := &t.out
	out.Last, out.Completed, out.Crashed, out.Evicted = 0, out.Completed[:0], out.Crashed[:0], out.Evicted[:0]
	out.FailedOut, out.Refused = out.FailedOut[:0], out.Refused[:0]
	slices.SortFunc(ends, func(a, b RunEnd) int { return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.RunID, b.RunID)) })
	a, f, e := 0, 0, 0
	for a < len(arrivals) || f < len(evs) || e < len(ends) {
		ta, tf, te := math.Inf(1), math.Inf(1), math.Inf(1)
		if a < len(arrivals) {
			ta = arrivals[a].Submit
		}
		if f < len(evs) {
			tf = evs[f].Time
		}
		if e < len(ends) {
			te = ends[e].At
		}
		out.Last = min(ta, tf, te)
		switch {
		case a < len(arrivals) && ta <= tf && ta <= te:
			j := arrivals[a]
			a++
			if eng.Submit(j) != nil {
				out.Refused = append(out.Refused, j.ID)
				continue
			}
			t.Sched.JobSubmitted(j, ta)
		case f < len(evs) && tf <= te:
			ev := evs[f]
			f++
			if ev.Kind == faults.NodeRecover {
				eng.RecoverNodes(ev.Partition, ev.Nodes, tf)
				continue
			}
			_, evicted, exhausted, _ := eng.FailNodes(ev.Partition, ev.Nodes, tf)
			out.Evicted = append(append(out.Evicted, evicted...), exhausted...)
			out.FailedOut = append(out.FailedOut, exhausted...)
			t.Removed(exhausted)
		default:
			end := ends[e]
			e++
			if !end.Crash {
				if j, base, ok := eng.Complete(end.ID, end.RunID, te); ok {
					out.Completed = append(out.Completed, end.ID)
					t.Sched.JobCompleted(j, base, te)
				}
			} else if requeued, ok := eng.CrashRun(end.ID, end.RunID, te); ok {
				out.Crashed = append(out.Crashed, end.ID)
				if !requeued {
					out.FailedOut = append(out.FailedOut, end.ID)
					t.Removed(out.FailedOut[len(out.FailedOut)-1:])
				}
			}
		}
	}
	return out
}

// Removed tells the scheduler of jobs that left without completing, through
// its optional JobRemoved (core.Scheduler drops their planning state).
func (t *Transition) Removed(ids []job.ID) {
	if rm, ok := t.Sched.(interface{ JobRemoved(job.ID) }); ok {
		for _, id := range ids {
			rm.JobRemoved(id)
		}
	}
}

// Launch starts a on eng at now and times the attempt — effective runtime ×
// straggler slowdown × RealCluster jitter, at least a millisecond. It
// returns the run, when it ends and when it crashes (0: it does not); ok is
// false when the engine refuses the start.
func (t *Transition) Launch(eng *Engine, a StartAction, now float64) (run *StartedRun, due, crashAt float64, ok bool) {
	start := now
	if t.RealCluster != nil {
		start += placementDelay
	}
	if run, ok = eng.Start(a, start); !ok {
		return nil, 0, 0, false
	}
	rt := run.EffectiveRuntime(run.Job.Runtime)
	if t.Inj != nil {
		rt *= t.Inj.Slowdown(run.Job.ID)
	}
	if t.RealCluster != nil {
		rt *= math.Exp(t.RealCluster.NormFloat64() * runtimeJitter)
	}
	rt = max(rt, 0.001)
	if t.Inj != nil {
		if frac, crashes := t.Inj.CrashPoint(run.Job.ID, run.Attempt); crashes {
			crashAt = start + frac*rt
		}
	}
	return run, start + rt, crashAt, true
}
