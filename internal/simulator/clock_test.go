package simulator

import (
	"testing"
	"time"
)

func TestVirtualClockAdvancesWithSet(t *testing.T) {
	c := NewVirtualClock()
	t0 := c.Now()
	c.Set(90)
	if got := c.Now().Sub(t0); got != 90*time.Second {
		t.Fatalf("Now advanced by %v, want 90s", got)
	}
	if got := c.Since(t0); got != 90*time.Second {
		t.Fatalf("Since(epoch) = %v, want 90s", got)
	}
	if c.Sec() != 90 {
		t.Fatalf("Sec = %v, want 90", c.Sec())
	}
	// Time stands still between Set calls: repeated reads are identical.
	if c.Now() != c.Now() {
		t.Fatal("virtual Now must be stable between Set calls")
	}
	c.Set(89.5)
	if got := c.Since(t0); got != 89500*time.Millisecond {
		t.Fatalf("fractional seconds: Since = %v, want 89.5s", got)
	}
}

func TestWallClockTracksRealTime(t *testing.T) {
	var c Clock = WallClock{}
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) || now.After(before.Add(time.Minute)) {
		t.Fatalf("wall Now() = %v far from time.Now() = %v", now, before)
	}
	if c.Since(before) < 0 {
		t.Fatal("wall Since went backwards")
	}
}
