package core

import (
	"fmt"
	"strings"
	"testing"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

func TestQuarterAndHalves(t *testing.T) {
	q := Quarter(grid.Span{I1: 0, J1: 0, I2: 3, J2: 3})
	if len(q) != 4 || q[0] != (grid.Span{I1: 0, J1: 0, I2: 1, J2: 1}) ||
		q[3] != (grid.Span{I1: 2, J1: 2, I2: 3, J2: 3}) {
		t.Fatalf("Quarter = %v", q)
	}
	// Single-column span splits into two, not four.
	if q = Quarter(grid.Span{I1: 5, J1: 0, I2: 5, J2: 3}); len(q) != 2 {
		t.Fatalf("single-column Quarter = %v", q)
	}
	// Single cell does not split.
	if q = Quarter(grid.Span{I1: 5, J1: 5, I2: 5, J2: 5}); len(q) != 1 {
		t.Fatalf("single-cell Quarter = %v", q)
	}
	// Odd widths split unevenly but exhaustively.
	h := halves(0, 4)
	if h[0] != [2]int{0, 2} || h[1] != [2]int{3, 4} {
		t.Fatalf("halves = %v", h)
	}
}

func TestDrilldownValidationCore(t *testing.T) {
	g := grid.NewUnit(8, 8)
	est := NewSEuler(histFromSpans(g, nil))
	region := grid.Span{I1: 0, J1: 0, I2: 7, J2: 7}
	if _, err := Drilldown(est, grid.Span{I1: 3, J1: 0, I2: 1, J2: 7},
		DrillOptions{HotThreshold: 1}); err == nil {
		t.Error("invalid region must error")
	}
	if _, err := Drilldown(est, region, DrillOptions{HotThreshold: 0}); err == nil {
		t.Error("zero threshold must error")
	}
	if _, err := Drilldown(est, region, DrillOptions{HotThreshold: 1, MaxDepth: -1}); err == nil {
		t.Error("negative depth must error")
	}
	// An empty estimator drills to the initial quartering only.
	tiles, err := Drilldown(est, region, DrillOptions{HotThreshold: 1, MaxDepth: 5})
	if err != nil || len(tiles) != 4 {
		t.Fatalf("empty drill = %d tiles, err %v", len(tiles), err)
	}
}

func TestDrilldownTileBudgetDeepInRecursion(t *testing.T) {
	g := grid.NewUnit(16, 16)
	// Objects everywhere: every tile is hot, forcing full refinement.
	spans := make([]grid.Span, 0, 256)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			spans = append(spans, grid.Span{I1: i, J1: j, I2: i, J2: j})
		}
	}
	est := NewSEuler(histFromSpans(g, spans))
	region := grid.Span{I1: 0, J1: 0, I2: 15, J2: 15}
	if _, err := Drilldown(est, region, DrillOptions{
		Relation: geom.Rel2Contains, HotThreshold: 1, MaxDepth: 10, MaxTiles: 5,
	}); err == nil {
		t.Fatal("budget exceeded deep in recursion must error")
	}
	// With a sufficient budget the same drill succeeds and bottoms out at
	// single cells.
	leaves, err := Drilldown(est, region, DrillOptions{
		Relation: geom.Rel2Contains, HotThreshold: 1, MaxDepth: 10, MaxTiles: 300,
	})
	if err != nil || len(leaves) != 256 {
		t.Fatalf("full refinement: %d leaves, %v", len(leaves), err)
	}
}

// TestDrilldownBatchStopsBeforeDoomedLevel: a level whose frontier cannot
// fit under MaxTiles fails before it is evaluated, and the bound is exact
// — a drill whose leaves fill MaxTiles exactly still succeeds.
func TestDrilldownBatchStopsBeforeDoomedLevel(t *testing.T) {
	region := grid.Span{I1: 0, J1: 0, I2: 15, J2: 15}
	for _, tc := range []struct {
		maxTiles int
		batches  []int // sizes of the evaluated levels
		ok       bool
	}{
		{256, []int{4, 16, 64, 256}, true},
		{255, []int{4, 16, 64}, false},
		{63, []int{4, 16}, false},
	} {
		var batches []int
		allHot := func(spans []grid.Span) ([]Estimate, error) {
			batches = append(batches, len(spans))
			ests := make([]Estimate, len(spans))
			for i := range ests {
				ests[i].Disjoint = 1
			}
			return ests, nil
		}
		leaves, err := DrilldownBatch(allHot, region, DrillOptions{
			Relation: geom.Rel2Disjoint, HotThreshold: 1, MaxDepth: 10, MaxTiles: tc.maxTiles,
		})
		if (err == nil) != tc.ok {
			t.Fatalf("MaxTiles %d: %d leaves, err %v", tc.maxTiles, len(leaves), err)
		}
		if fmt.Sprint(batches) != fmt.Sprint(tc.batches) {
			t.Fatalf("MaxTiles %d: evaluated batches %v, want %v", tc.maxTiles, batches, tc.batches)
		}
		if !tc.ok && !strings.Contains(err.Error(), fmt.Sprintf("exceeded %d tiles", tc.maxTiles)) {
			t.Fatalf("MaxTiles %d: error %q", tc.maxTiles, err)
		}
	}
}
