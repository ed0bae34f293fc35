package main

import (
	"math"
	"testing"
	"time"
)

func TestNearestRankPercentile(t *testing.T) {
	var l latencies
	for i := 100; i >= 1; i-- { // insertion order must not matter
		l.add(time.Duration(i) * time.Millisecond)
	}
	for p, want := range map[float64]float64{0.01: 1, 0.5: 50, 0.99: 99, 1: 100, 0.505: 51} {
		if got := l.percentile(p); got != want {
			t.Errorf("p%g = %g, want %g", p*100, got, want)
		}
	}
}

func TestFailuresRankAsInfinity(t *testing.T) {
	var l latencies
	for i := 1; i <= 98; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	l.fail()
	l.fail()
	if n := l.samples(); n != 100 {
		t.Fatalf("samples = %d, want 100 (failures count)", n)
	}
	if got := l.percentile(0.98); got != 98 {
		t.Errorf("p98 = %g, want 98", got)
	}
	if got := l.percentile(0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %g, want +Inf: a failed request misses every limit", got)
	}
	if got := l.percentile(0.5); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	var empty latencies
	if got := empty.percentile(0.5); !math.IsNaN(got) {
		t.Errorf("empty p50 = %g, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}
