package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a send takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	const interval = 10 * time.Millisecond
	// Request 1 stalls for 35ms: requests 2-4 fall due while it is in
	// flight and go out late, back to back, until the generator catches up.
	service := []time.Duration{2, 35, 2, 2, 2, 2, 2}
	n := 0
	out := runOpenLoop(clk, start, interval, func() bool { return n == len(service) }, func(k int) bool {
		clk.now = clk.now.Add(service[k] * time.Millisecond)
		n++
		return true
	})
	if len(out) != len(service) {
		t.Fatalf("%d outcomes, want %d", len(out), len(service))
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	wantLate := []float64{0, 0, 25, 17, 9, 1, 0}
	wantLatency := []float64{2, 35, 27, 19, 11, 3, 2}
	for k, o := range out {
		if want := start.Add(time.Duration(k) * interval); !o.at.Equal(want) {
			t.Errorf("request %d due %v, want %v", k, o.at.Sub(start), want.Sub(start))
		}
		if got := ms(o.sent.Sub(o.at)); got != wantLate[k] {
			t.Errorf("request %d late %gms, want %g", k, got, wantLate[k])
		}
		// Latency runs from the due time, so the stall is charged to
		// every request it delayed, not only to the one that stalled.
		if got := ms(o.done.Sub(o.at)); got != wantLatency[k] {
			t.Errorf("request %d latency %gms, want %g", k, got, wantLatency[k])
		}
	}

	l := &load{outcomes: [][]outcome{out}}
	ws := l.window(start, start.Add(time.Second))
	if ws.late.samples() != 7 || ws.late.percentile(1) != 25 {
		t.Errorf("lateness n=%d max=%g, want 7 and 25", ws.late.samples(), ws.late.percentile(1))
	}
	// A window starts and ends by due time.
	if ws := l.window(start.Add(15*time.Millisecond), start.Add(45*time.Millisecond)); ws.attempted != 3 {
		t.Errorf("window of due times [15,45)ms holds %d requests, want 3", ws.attempted)
	}
}
