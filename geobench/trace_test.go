package main

import (
	"testing"

	"spatialhist/internal/grid"
)

func TestStreamHashIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads() {
		g := grid.NewUnit(w.gw, w.gh)
		hash := func(seed int64) uint64 {
			return streamHash(w.trace, g, seed, w.sessions, w.ingestBatch, 200, verifyList(w, g, seed))
		}
		if a, b := hash(7), hash(7); a != b {
			t.Errorf("%s: seed 7 hashes to %x and %x", w.name, a, b)
		}
		if a, b := hash(7), hash(8); a == b {
			t.Errorf("%s: seeds 7 and 8 share hash %x", w.name, a)
		}
	}
}

func TestSessionsCoverEveryEndpoint(t *testing.T) {
	for _, w := range workloads() {
		g := grid.NewUnit(w.gw, w.gh)
		seen := map[string]int{}
		for _, r := range verifyList(w, g, 1) {
			seen[r.endpoint]++
		}
		for _, ep := range []string{epBrowse, epDrill, epQuery} {
			if seen[ep] == 0 {
				t.Errorf("%s: verification list has no %s request", w.name, ep)
			}
		}
	}
}
