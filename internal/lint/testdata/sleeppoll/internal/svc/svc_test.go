package svc

import (
	"testing"
	"time"
)

// Tests poll on purpose (a deadline loop around an assertion): skipped.
func TestPoll(t *testing.T) {
	for i := 0; i < 3 && !ready.Load(); i++ {
		time.Sleep(time.Millisecond)
	}
}
