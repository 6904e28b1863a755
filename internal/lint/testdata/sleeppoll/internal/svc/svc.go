// Package svc is library code under internal/: sleeping in a loop is a poll.
package svc

import (
	"sync/atomic"
	"time"
)

var ready atomic.Bool

// WaitBody sleeps in the loop body: flagged.
func WaitBody() {
	for !ready.Load() {
		time.Sleep(2 * time.Millisecond)
	}
}

// WaitPost sleeps in the post statement, the same poll spelled shorter: flagged.
func WaitPost() {
	for ; !ready.Load(); time.Sleep(time.Millisecond) {
	}
}

// WaitRange sleeps between attempts, under an if, in a range loop: flagged.
func WaitRange(tries []int) bool {
	for range tries {
		if ready.Load() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// Settle sleeps once, outside any loop: not a poll, not flagged.
func Settle() {
	time.Sleep(time.Millisecond)
}

// Later starts one delayed action per item. The sleep is in a function
// literal, not in the loop that launched it: not flagged.
func Later(items []func()) {
	for _, fn := range items {
		go func() {
			time.Sleep(time.Millisecond)
			fn()
		}()
	}
}

// WaitEvent is what the rule asks for: block on the event, with a timer for
// the deadline alone. Not flagged.
func WaitEvent(done <-chan struct{}, limit time.Duration) bool {
	timer := time.NewTimer(limit)
	defer timer.Stop()
	for {
		select {
		case <-done:
			return true
		case <-timer.C:
			return false
		}
	}
}

// Allowed carries a reasoned suppression: not reported.
func Allowed() {
	for !ready.Load() {
		//lint:allow sleeppoll fixture: proves the rule is suppressible like any other
		time.Sleep(time.Millisecond)
	}
}
