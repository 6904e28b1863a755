package simulator

import "time"

// Clock abstracts the scheduler-visible time source so the same scheduling
// core runs against simulated (virtual) and real (wall) time. 3σSched uses
// its clock for solver deadlines and cycle/predict latency measurement; the
// online service (internal/service) hands it a cycle-indexed VirtualClock,
// and the simulator can hand it the run's VirtualClock (Options.VirtualTime),
// so scheduling behavior is independent of host load.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// WallClock is the real time: Now and Since delegate to package time. It is
// the default clock of core.Scheduler and of the online daemon's shell
// (leases, uptime, cycle timing).
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time { return time.Now() }

// Since implements Clock.
func (WallClock) Since(t time.Time) time.Duration { return time.Since(t) }

// virtEpoch anchors virtual seconds onto the time.Time axis. The concrete
// value is irrelevant (only differences are observed); it is fixed so that
// virtual timestamps are reproducible across runs.
var virtEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// VirtualClock is a clock driven explicitly by a discrete-event loop: time
// stands still between Set calls. An interval measured through it within
// one event (e.g. a scheduling cycle) is therefore exactly zero, and a
// solver deadline derived from it can never expire mid-solve — virtual-time
// runs explore the same search tree on a loaded laptop and an idle server.
//
// Not safe for concurrent use; the event loop owns it.
type VirtualClock struct {
	sec float64 // current virtual time, seconds since the run's origin
}

// NewVirtualClock returns a virtual clock at time zero.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Set moves the clock to sec virtual seconds.
func (c *VirtualClock) Set(sec float64) { c.sec = sec }

// Sec returns the current virtual time in seconds.
func (c *VirtualClock) Sec() float64 { return c.sec }

// Now implements Clock: the virtual epoch plus the current virtual seconds.
func (c *VirtualClock) Now() time.Time {
	return virtEpoch.Add(time.Duration(c.sec * float64(time.Second)))
}

// Since implements Clock against virtual time.
func (c *VirtualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// ClockAware is implemented by schedulers whose internal timing can be
// re-based onto an injected clock (core.Scheduler). The simulator uses it
// to wire its virtual clock in when Options.VirtualTime is set.
type ClockAware interface {
	SetClock(Clock)
}
