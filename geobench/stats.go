package main

import (
	"math"
	"sort"
	"time"
)

// latencies collects one endpoint's request latencies in milliseconds. A
// failed or shed request has no useful latency: it counts as +Inf, so it
// misses every latency limit and moves the percentiles up, never down.
type latencies struct {
	ms     []float64
	failed int
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }
func (l *latencies) fail()               { l.failed++ }

// samples is the number of requests the percentiles rank, failures included.
func (l *latencies) samples() int { return len(l.ms) + l.failed }

// percentile is the nearest-rank percentile (p in (0,1]) over successes
// and failures, with failures ranked as +Inf. It is NaN with no samples.
func (l *latencies) percentile(p float64) float64 {
	n := l.samples()
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = max(1, min(rank, n))
	if rank > len(l.ms) {
		return math.Inf(1)
	}
	sorted := append([]float64(nil), l.ms...)
	sort.Float64s(sorted)
	return sorted[rank-1]
}

// median returns the middle value (mean of the two middle values for an
// even count) of xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when den is 0: a layer that did no work reports
// no rate rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
