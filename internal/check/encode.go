// Wire-encoding oracle. Every tile-bearing response is rendered by the
// append encoders in internal/geobrowse; json.Marshal of the reference
// response types (TileEstimates, NewTileEstimate, BrowseResponse,
// FacetedBrowseResponse, DrillResponse) is the specification. The oracle
// feeds both the same seeded grids, tilings and estimates — including
// extents whose tile edges straddle encoding/json's 1e-6 and 1e21
// exponent cut-overs, subnormal cell widths, -0, counts that must clamp
// and counts near math.MaxInt64 — and demands byte-identical output, or
// an error from both sides for values JSON cannot carry.
package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// encodeAxis draws one axis of a grid: n cells of a width picked to
// exercise float formatting, starting at lo.
func encodeAxis(r *rand.Rand) (lo, hi float64, n int) {
	n = 1 + r.Intn(24)
	var cw float64
	switch r.Intn(6) {
	case 0: // the paper's unit cells
		cw = 1
	case 1: // edges around the 1e-6 cut-over to exponent form
		cw = 1e-6 / float64(1+r.Intn(8))
	case 2: // edges around the 1e21 cut-over
		cw = 1e21 / float64(1+r.Intn(8))
	case 3: // subnormal cell widths
		cw = math.Ldexp(1, -1074+r.Intn(64))
	default: // any scale
		cw = math.Pow(10, -300+600*r.Float64())
	}
	// Start at a whole number of cells left of zero, so edges land on
	// 0, ±cw, ±2cw, … and on the cut-over values themselves.
	lo = -cw * float64(r.Intn(n+1))
	if r.Intn(4) == 0 {
		lo += cw * r.Float64()
	}
	hi = lo + cw*float64(n)
	if !(hi > lo) || math.IsInf(hi, 0) {
		return 0, float64(n), n
	}
	return lo, hi, n
}

// encodeGrid draws a grid for the encoding oracle.
func encodeGrid(r *rand.Rand) *grid.Grid {
	x1, x2, nx := encodeAxis(r)
	y1, y2, ny := encodeAxis(r)
	return grid.New(geom.Rect{XMin: x1, YMin: y1, XMax: x2, YMax: y2}, nx, ny)
}

// encodeFloats are values at and beside encoding/json's format cut-overs.
var encodeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, math.Nextafter(-1e-6, 0), 1e-7, 1.5e-7,
	1e21, math.Nextafter(1e21, 0), -1e21, math.Nextafter(1e21, math.Inf(1)), 1e20, 1.2345e22,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	1e-300, 123456789.125,
}

// encodeFloat draws a float for the approxErrorBound field.
func encodeFloat(r *rand.Rand) float64 {
	if r.Intn(2) == 0 {
		return encodeFloats[r.Intn(len(encodeFloats))]
	}
	return (r.Float64() - 0.5) * math.Pow(10, -310+620*r.Float64())
}

// encodeCount draws a raw count: mostly ordinary, sometimes negative
// (must clamp to 0) or at the int64 extremes.
func encodeCount(r *rand.Rand) int64 {
	switch r.Intn(8) {
	case 0:
		return -1 - r.Int63n(1000)
	case 1:
		return math.MaxInt64 - r.Int63n(1000)
	case 2:
		return math.MinInt64 + r.Int63n(1000)
	case 3:
		return 0
	}
	return r.Int63n(1_000_000)
}

func encodeEstimate(r *rand.Rand) core.Estimate {
	return core.Estimate{Disjoint: encodeCount(r), Contains: encodeCount(r),
		Contained: encodeCount(r), Overlap: encodeCount(r)}
}

// encodeCase is one browse-shaped input: a tile map over a grid, with an
// optional ε bound and a faceted match count.
type encodeCase struct {
	g          *grid.Grid
	region     grid.Span
	cols, rows int
	ests       []core.Estimate
	bound      *float64
	matching   int64
}

// mismatch renders both encodings of c and describes the first
// disagreement, or returns "" when they agree.
func (c encodeCase) mismatch() (detail, got, want string) {
	tiles := geobrowse.TileEstimates(c.g, c.region, c.cols, c.rows, c.ests)
	if d, g, w := compareEncoding("browse",
		func() ([]byte, error) {
			return geobrowse.AppendBrowse(nil, c.g, c.region, c.cols, c.rows, c.ests, c.bound)
		},
		geobrowse.BrowseResponse{Cols: c.cols, Rows: c.rows, Tiles: tiles, ApproxErrorBound: c.bound}); d != "" {
		return d, g, w
	}
	return compareEncoding("faceted browse",
		func() ([]byte, error) {
			return geobrowse.AppendFacetedBrowse(nil, c.g, c.region, c.cols, c.rows, c.matching, c.ests)
		},
		geobrowse.FacetedBrowseResponse{Cols: c.cols, Rows: c.rows, Matching: c.matching, Tiles: tiles})
}

// compareEncoding runs an appender against json.Marshal of its reference
// value: both must fail, or both succeed with the same bytes.
func compareEncoding(what string, appendTo func() ([]byte, error), ref any) (detail, got, want string) {
	gotB, gotErr := appendTo()
	wantB, wantErr := json.Marshal(ref)
	switch {
	case (gotErr != nil) != (wantErr != nil):
		return fmt.Sprintf("%s: appender error %v, json.Marshal error %v", what, gotErr, wantErr),
			string(gotB), string(wantB)
	case gotErr != nil:
		return "", "", ""
	case !bytes.Equal(gotB, wantB):
		at := 0
		for at < len(gotB) && at < len(wantB) && gotB[at] == wantB[at] {
			at++
		}
		return fmt.Sprintf("%s: bodies differ at byte %d", what, at), string(gotB), string(wantB)
	}
	return "", "", ""
}

// shrinkEncodeCase reduces a failing tile map to a minimal one: a single
// failing tile if there is one, then the smallest grid prefix whose cell
// size is bit-identical (so every edge keeps its value), then without the
// bound and with zeroed counts where the failure survives.
func shrinkEncodeCase(c encodeCase) encodeCase {
	fails := func(c encodeCase) bool { d, _, _ := c.mismatch(); return d != "" }
	tw, th := c.region.Width()/c.cols, c.region.Height()/c.rows
	for k := range c.ests {
		i1 := c.region.I1 + (k%c.cols)*tw
		j1 := c.region.J1 + (k/c.cols)*th
		one := c
		one.region = grid.Span{I1: i1, J1: j1, I2: i1 + tw - 1, J2: j1 + th - 1}
		one.cols, one.rows, one.ests = 1, 1, c.ests[k:k+1]
		if fails(one) {
			c = one
			break
		}
	}
	ext := c.g.Extent()
	nx, ny := c.region.I2+1, c.region.J2+1
	x2 := ext.XMin + float64(nx)*c.g.CellWidth()
	y2 := ext.YMin + float64(ny)*c.g.CellHeight()
	if x2 > ext.XMin && y2 > ext.YMin {
		small := grid.New(geom.Rect{XMin: ext.XMin, YMin: ext.YMin, XMax: x2, YMax: y2}, nx, ny)
		if small.CellWidth() == c.g.CellWidth() && small.CellHeight() == c.g.CellHeight() {
			cand := c
			cand.g = small
			if fails(cand) {
				c = cand
			}
		}
	}
	if c.bound != nil {
		cand := c
		cand.bound = nil
		if fails(cand) {
			c = cand
		}
	}
	cand := c
	cand.ests = make([]core.Estimate, len(c.ests))
	if fails(cand) {
		c = cand
	}
	return c
}

// randomLeaves drills region with a random evaluator, yielding a valid
// leaf partition at mixed depths.
func randomLeaves(r *rand.Rand, region grid.Span) []core.DrillTile {
	leaves, err := core.DrilldownBatch(func(spans []grid.Span) ([]core.Estimate, error) {
		out := make([]core.Estimate, len(spans))
		for i := range out {
			out[i] = encodeEstimate(r)
		}
		return out, nil
	}, region, core.DrillOptions{
		Relation:     geom.Rel2(r.Intn(5)),
		HotThreshold: 1 + r.Int63n(500_000),
		MaxDepth:     r.Intn(5),
		MaxTiles:     1 << 20,
	})
	if err != nil {
		panic(err) // the options above are always valid
	}
	return leaves
}

func drillReference(g *grid.Grid, rel geom.Rel2, leaves []core.DrillTile) geobrowse.DrillResponse {
	resp := geobrowse.DrillResponse{Relation: rel.String(), Tiles: make([]geobrowse.DrillTile, 0, len(leaves))}
	for _, l := range leaves {
		resp.Tiles = append(resp.Tiles, geobrowse.DrillTile{
			TileEstimate: geobrowse.NewTileEstimate(g, l.Span, l.Estimate), Depth: l.Depth})
	}
	return resp
}

func runEncodeVsJSON(seed int64) *Divergence {
	const name = "encode-vs-json"
	r := gen.Rand(seed)
	g := encodeGrid(r)

	// Browse and faceted maps: a random tiling, or single-cell tiles over
	// the whole grid.
	c := encodeCase{g: g, matching: encodeCount(r)}
	if r.Intn(4) == 0 {
		c.region = grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
		c.cols, c.rows = g.NX(), g.NY()
	} else {
		c.region, c.cols, c.rows = gen.Tiling(r, g)
	}
	c.ests = make([]core.Estimate, c.cols*c.rows)
	for i := range c.ests {
		c.ests[i] = encodeEstimate(r)
	}
	if r.Intn(2) == 0 {
		b := encodeFloat(r)
		if r.Intn(16) == 0 {
			b = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
		}
		c.bound = &b
	}
	if d, _, _ := c.mismatch(); d != "" {
		c = shrinkEncodeCase(c)
		d, got, want := c.mismatch()
		q := c.region
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(c.g), Query: &q,
			Detail: fmt.Sprintf("%s (%dx%d tiling, bound %v)", d, c.cols, c.rows, boundDesc(c.bound)),
			Got:    got, Want: want}
	}

	// One /api/query tile.
	q := gen.Span(r, g)
	e := encodeEstimate(r)
	if d, got, want := compareEncoding("query tile",
		func() ([]byte, error) { return geobrowse.AppendTile(nil, g, q, e) },
		geobrowse.NewTileEstimate(g, q, e)); d != "" {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Query: &q, Detail: d, Got: got, Want: want}
	}

	// Drill leaves at mixed depths over a random region.
	region := gen.Span(r, g)
	rel := geom.Rel2(r.Intn(6)) // includes an out-of-range relation
	leaves := randomLeaves(r, region)
	drillFails := func(ls []core.DrillTile) (detail, got, want string) {
		return compareEncoding("drill",
			func() ([]byte, error) { return geobrowse.AppendDrill(nil, g, region, rel, ls) },
			drillReference(g, rel, ls))
	}
	if d, _, _ := drillFails(leaves); d != "" {
		leaves = shrinkSlice(leaves, 200, func(ls []core.DrillTile) bool { d, _, _ := drillFails(ls); return d != "" })
		d, got, want := drillFails(leaves)
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Query: &region,
			Detail: fmt.Sprintf("%s (%s, %d leaves after shrinking)", d, rel, len(leaves)), Got: got, Want: want}
	}
	return nil
}

func boundDesc(b *float64) string {
	if b == nil {
		return "absent"
	}
	return fmt.Sprint(*b)
}
