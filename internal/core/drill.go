package core

import (
	"fmt"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// DrillOptions configures Drilldown.
type DrillOptions struct {
	// Relation whose count drives refinement.
	Relation geom.Rel2
	// HotThreshold: a tile is refined when its (clamped) count for
	// Relation is at least this value. Must be at least 1.
	HotThreshold int64
	// MaxDepth bounds refinement; depth 0 is the initial split of the
	// region, each further level splits hot tiles again. Refinement also
	// stops at single-cell tiles, the estimator's resolution floor.
	MaxDepth int
	// MaxTiles caps the number of leaf tiles returned; 0 means 4096.
	MaxTiles int
}

// DrillTile is one leaf of a drill-down: a tile that was either cold or at
// the refinement floor.
type DrillTile struct {
	Span     grid.Span
	Depth    int
	Estimate Estimate
}

// SpanEvaluator answers a batch of grid-aligned spans, one Estimate per
// span in order. It abstracts where the estimates come from: a local
// estimator (EstimateSet), or a scatter-gather coordinator that fans the
// batch out to shards and merges the raw sums.
type SpanEvaluator func(spans []grid.Span) ([]Estimate, error)

// Drilldown explores a region adaptively: it splits the region into up to
// four tiles, estimates each, and recursively refines only the tiles whose
// count for the chosen relation is hot — the interactive "zoom into where
// the data is" loop of a browsing client, executed in one call. Because
// every probe is a constant-time histogram query, drilling into a
// million-object dataset costs microseconds regardless of depth.
//
// The returned leaves partition the region and are ordered depth-first,
// south-west first.
func Drilldown(est Estimator, region grid.Span, opts DrillOptions) ([]DrillTile, error) {
	return DrilldownBatch(func(spans []grid.Span) ([]Estimate, error) {
		return EstimateSet(est, spans), nil
	}, region, opts)
}

// DrilldownBatch is Drilldown over a SpanEvaluator: the refinement frontier
// is evaluated one whole level at a time, so a distributed evaluator pays
// one scatter-gather round per depth level instead of one per tile. The
// refinement decisions, leaves and their depth-first order are identical to
// Drilldown's — the recursion is data-dependent only through the estimates,
// and those are evaluated for exactly the same spans.
func DrilldownBatch(eval SpanEvaluator, region grid.Span, opts DrillOptions) ([]DrillTile, error) {
	if !region.Valid() {
		return nil, fmt.Errorf("core: invalid drill region %v", region)
	}
	if opts.HotThreshold < 1 {
		return nil, fmt.Errorf("core: HotThreshold must be at least 1, got %d", opts.HotThreshold)
	}
	if opts.MaxDepth < 0 {
		return nil, fmt.Errorf("core: negative MaxDepth %d", opts.MaxDepth)
	}
	maxTiles := opts.MaxTiles
	if maxTiles == 0 {
		maxTiles = 4096
	}

	// The expansion tree, grown breadth-first. Children sit contiguously in
	// Quarter order, so a depth-first walk over child links reproduces the
	// recursive emit order exactly.
	type node struct {
		span       grid.Span
		est        Estimate
		kids, nkid int32 // first child index and count; nkid == 0 is a leaf
	}
	var nodes []node
	quarterInto := func(s grid.Span) (first, n int32) {
		first = int32(len(nodes))
		for _, child := range Quarter(s) {
			nodes = append(nodes, node{span: child})
		}
		return first, int32(len(nodes)) - first
	}

	rootFirst, rootN := quarterInto(region)
	frontier := []int32{} // node indices awaiting evaluation at the current depth
	for i := int32(0); i < rootN; i++ {
		frontier = append(frontier, rootFirst+i)
	}
	leaves := 0
	spans := make([]grid.Span, 0, len(frontier))
	for depth := 0; len(frontier) > 0; depth++ {
		// Every frontier node ends in at least one leaf, and on the last
		// level each ends in exactly one, so this fails exactly when the
		// finished tree would hold more than maxTiles leaves — but before
		// evaluating (or scattering) a batch whose answer is that error.
		if leaves+len(frontier) > maxTiles {
			return nil, fmt.Errorf("core: drill-down exceeded %d tiles; raise HotThreshold or MaxTiles", maxTiles)
		}
		spans = spans[:0]
		for _, ni := range frontier {
			spans = append(spans, nodes[ni].span)
		}
		ests, err := eval(spans)
		if err != nil {
			return nil, fmt.Errorf("core: drill-down at depth %d: %w", depth, err)
		}
		if len(ests) != len(spans) {
			return nil, fmt.Errorf("core: drill-down evaluator returned %d estimates for %d spans", len(ests), len(spans))
		}
		var next []int32
		for k, ni := range frontier {
			e := ests[k]
			nodes[ni].est = e
			hot := e.Clamped().Get(opts.Relation) >= opts.HotThreshold
			refinable := depth < opts.MaxDepth && nodes[ni].span.Cells() > 1
			if hot && refinable {
				first, n := quarterInto(nodes[ni].span)
				nodes[ni].kids, nodes[ni].nkid = first, n
				for i := int32(0); i < n; i++ {
					next = append(next, first+i)
				}
				continue
			}
			leaves++
		}
		frontier = next
	}

	// Depth-first emit over the finished tree, south-west first — the order
	// the recursive walk produces.
	out := make([]DrillTile, 0, leaves)
	type frame struct {
		idx   int32
		depth int
	}
	stack := make([]frame, 0, 64)
	for i := rootN - 1; i >= 0; i-- {
		stack = append(stack, frame{rootFirst + i, 0})
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &nodes[f.idx]
		if nd.nkid == 0 {
			out = append(out, DrillTile{Span: nd.span, Depth: f.depth, Estimate: nd.est})
			continue
		}
		for i := nd.nkid - 1; i >= 0; i-- {
			stack = append(stack, frame{nd.kids + i, f.depth + 1})
		}
	}
	return out, nil
}

// Quarter splits a span into up to four sub-spans at its cell midpoints
// (fewer when a dimension is a single cell wide).
func Quarter(s grid.Span) []grid.Span {
	xs := halves(s.I1, s.I2)
	ys := halves(s.J1, s.J2)
	out := make([]grid.Span, 0, 4)
	for _, y := range ys {
		for _, x := range xs {
			out = append(out, grid.Span{I1: x[0], J1: y[0], I2: x[1], J2: y[1]})
		}
	}
	return out
}

func halves(lo, hi int) [][2]int {
	if lo == hi {
		return [][2]int{{lo, hi}}
	}
	mid := lo + (hi-lo)/2
	return [][2]int{{lo, mid}, {mid + 1, hi}}
}
