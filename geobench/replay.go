package main

import (
	"fmt"
	"slices"
	"time"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/grid"
)

// replayed is what a traced run measures in-process.
type replayed struct {
	spans        []span
	untracedMs   float64 // median wall time of an untraced pass over the list
	tracedMs     float64 // median wall time of a traced pass
	fullNs       float64 // base-level EstimateGrid time, full int64 lattices
	packedNs     float64 // the same maps over int32-packed lattices
	tierTiles    int     // tiles behind fullNs and packedNs
	tierMismatch int     // maps whose packed answer differs from the full one
}

// replayList is the opening stretch of every session's stream: exactly
// the first requests the sessions sent, since streams are seeded.
func replayList(w *workload, g *grid.Grid, seed int64) []request {
	per := (w.replayReqs + w.sessions - 1) / w.sessions
	var out []request
	for s := 0; s < w.sessions; s++ {
		sess := newSession(w.trace, g, seed, s)
		for k := 0; k < per; k++ {
			out = append(out, sess.next())
		}
	}
	return out
}

// replay answers reqs in-process over est in handler order. One untraced
// pass warms up; then untraced and traced passes alternate three times
// each, so the tracing overhead is the gap between their medians. The
// spans of the last traced pass are kept.
func replay(est core.Estimator, g *grid.Grid, reqs []request) (*replayed, error) {
	pass := func(t *tracer) (float64, error) {
		start := time.Now()
		for _, r := range reqs {
			if _, _, err := answer(est, g, r, t); err != nil {
				return 0, fmt.Errorf("replaying %s: %w", r.path, err)
			}
		}
		return float64(time.Since(start)) / float64(time.Millisecond), nil
	}
	if _, err := pass(nil); err != nil {
		return nil, err
	}
	var plain, traced []float64
	out := &replayed{}
	for i := 0; i < 3; i++ {
		ms, err := pass(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ms)
		t := newTracer()
		if ms, err = pass(t); err != nil {
			return nil, err
		}
		traced = append(traced, ms)
		out.spans = t.spans
	}
	out.untracedMs, out.tracedMs = median(plain), median(traced)
	return out, nil
}

// compareTiers times the browse maps of reqs through the base-level
// estimator over full and over packed lattices, alternating which goes
// first, and checks that both tiers answer identically.
func compareTiers(m *core.MEuler, g *grid.Grid, reqs []request, out *replayed) error {
	var lattices []euler.Lattice
	for _, h := range m.Histograms() {
		p, ok := h.Pack()
		if !ok {
			return fmt.Errorf("packing a histogram of %d objects", h.Count())
		}
		lattices = append(lattices, p)
	}
	packed, err := core.MEulerFromLattices(m.Areas(), lattices)
	if err != nil {
		return err
	}
	timeGrid := func(est core.Estimator, region grid.Span, cols, rows int) ([]core.Estimate, float64, error) {
		start := time.Now()
		ests, err := core.EstimateGrid(est, region, cols, rows)
		return ests, float64(time.Since(start)), err
	}
	var fullNs, packedNs float64
	for i, r := range reqs {
		if r.endpoint != epBrowse {
			continue
		}
		hr, err := inprocRequest(r)
		if err != nil {
			return err
		}
		region, cols, rows, err := geobrowse.ParseBrowseRequest(g, hr)
		if err != nil {
			return err
		}
		var fe, pe []core.Estimate
		var fns, pns float64
		if i%2 == 0 {
			fe, fns, err = timeGrid(m, region, cols, rows)
			if err == nil {
				pe, pns, err = timeGrid(packed, region, cols, rows)
			}
		} else {
			pe, pns, err = timeGrid(packed, region, cols, rows)
			if err == nil {
				fe, fns, err = timeGrid(m, region, cols, rows)
			}
		}
		if err != nil {
			return err
		}
		if !slices.Equal(fe, pe) {
			out.tierMismatch++
		}
		fullNs += fns
		packedNs += pns
		out.tierTiles += len(fe)
	}
	out.fullNs, out.packedNs = fullNs, packedNs
	return nil
}
