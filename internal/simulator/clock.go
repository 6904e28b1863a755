package simulator

import "time"

// Clock is a time source for measurement: the online service's shell reads
// one for uptime, leases and its cycle timing (service.Config.Clock), and
// tests substitute a stepped one. No scheduling decision reads a Clock —
// the simulator and the service advance logical time themselves and the
// solver is bounded by its node cap — so schedules do not depend on host
// load.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// WallClock is the real time: Now and Since delegate to package time. It is
// the one stopwatch of the scheduler, the shard coordinator and the command
// line tools (cycle, solve and predict latencies, elapsed displays), and the
// default clock of the online daemon's shell (leases, uptime, cycle timing).
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time { return time.Now() }

// Since implements Clock.
func (WallClock) Since(t time.Time) time.Duration { return time.Since(t) }

// virtEpoch anchors virtual seconds onto the time.Time axis. The concrete
// value is irrelevant (only differences are observed); it is fixed so that
// virtual timestamps are reproducible across runs.
var virtEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// VirtualClock is a clock driven explicitly by Set calls: time stands still
// between them, so an interval measured through it within one Set is
// exactly zero.
//
// Not safe for concurrent use; whoever calls Set owns it.
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

// ClockAware was the hook through which a clock was injected into a
// scheduler; nothing injects one any more.
//
// Deprecated: ignored; kept only because bench/ sets it.
type ClockAware interface {
	SetClock(Clock)
}
