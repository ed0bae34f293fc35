package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
)

// The in-process side of the benchmark: the same calls a geobrowsed
// handler makes, in handler order, against estimators the benchmark builds
// itself from the seeded data. They compute the reference answers of the
// verification pass, and — with a tracer — time each layer of a traced
// run.

// span is one timed call into a layer. Spans of one request share req;
// parent names the enclosing span ("" for the request's root).
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer began
	End    int64  `json:"end_ns"`
	Tiles  int    `json:"tiles,omitempty"`
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	origin time.Time
	req    int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// mark returns the current time when tracing, and the zero time otherwise.
func (t *tracer) mark() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) record(name, parent string, start time.Time, tiles int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Req: t.req, Name: name, Parent: parent,
		Start: int64(start.Sub(t.origin)), End: int64(time.Since(t.origin)), Tiles: tiles})
}

// Span names: the public functions each layer boundary calls.
const (
	spanParse    = "geobrowse.Parse"
	spanGrid     = "core.EstimateGrid"
	spanEstimate = "core.Estimator.Estimate"
	spanDrill    = "core.Drilldown"
	spanEncode   = "geobrowse.encode" // TileEstimates or NewTileEstimate, then json.Marshal
)

// answer computes the response body a geobrowsed handler would send for r
// over est: parse, estimate, render and marshal, in handler order. tiles
// is the number of tiles in the body.
func answer(est core.Estimator, g *grid.Grid, r request, t *tracer) (body []byte, tiles int, err error) {
	hr, err := inprocRequest(r)
	if err != nil {
		return nil, 0, err
	}
	root := t.mark()
	defer func() {
		if t != nil {
			t.record(r.endpoint, "", root, tiles)
			t.req++
		}
	}()
	t0 := t.mark()
	switch r.endpoint {
	case epBrowse:
		region, cols, rows, err := geobrowse.ParseBrowseRequest(g, hr)
		t.record(spanParse, r.endpoint, t0, 0)
		if err != nil {
			return nil, 0, err
		}
		t1 := t.mark()
		ests, err := core.EstimateGrid(est, region, cols, rows)
		t.record(spanGrid, r.endpoint, t1, len(ests))
		if err != nil {
			return nil, 0, err
		}
		t2 := t.mark()
		body, err = json.Marshal(geobrowse.BrowseResponse{Cols: cols, Rows: rows,
			Tiles: geobrowse.TileEstimates(g, region, cols, rows, ests)})
		t.record(spanEncode, r.endpoint, t2, len(ests))
		return body, len(ests), err
	case epQuery:
		region, err := geobrowse.ParseRegionRequest(g, hr)
		t.record(spanParse, r.endpoint, t0, 0)
		if err != nil {
			return nil, 0, err
		}
		t1 := t.mark()
		e := est.Estimate(region)
		t.record(spanEstimate, r.endpoint, t1, 1)
		t2 := t.mark()
		body, err = json.Marshal(geobrowse.NewTileEstimate(g, region, e))
		t.record(spanEncode, r.endpoint, t2, 1)
		return body, 1, err
	case epDrill:
		region, rel, hot, depth, err := geobrowse.ParseDrillRequest(g, hr)
		t.record(spanParse, r.endpoint, t0, 0)
		if err != nil {
			return nil, 0, err
		}
		t1 := t.mark()
		leaves, err := core.Drilldown(est, region, core.DrillOptions{
			Relation: rel, HotThreshold: int64(hot), MaxDepth: depth, MaxTiles: geobrowse.DrillMaxTiles,
		})
		t.record(spanDrill, r.endpoint, t1, len(leaves))
		if err != nil {
			return nil, 0, err
		}
		t2 := t.mark()
		resp := geobrowse.DrillResponse{Relation: rel.String(), Tiles: make([]geobrowse.DrillTile, 0, len(leaves))}
		for _, l := range leaves {
			resp.Tiles = append(resp.Tiles, geobrowse.DrillTile{
				TileEstimate: geobrowse.NewTileEstimate(g, l.Span, l.Estimate), Depth: l.Depth})
		}
		body, err = json.Marshal(resp)
		t.record(spanEncode, r.endpoint, t2, len(leaves))
		return body, len(leaves), err
	}
	return nil, 0, fmt.Errorf("no in-process handler for %s", r.endpoint)
}

// inprocRequest is the *http.Request a handler would see for r.
func inprocRequest(r request) (*http.Request, error) {
	return http.NewRequest(http.MethodGet, "http://bench"+r.path, nil)
}

// verifyList is the fixed seeded request list of the verification pass:
// the opening requests of fresh sessions on a seed derived from the run's.
func verifyList(w *workload, g *grid.Grid, seed int64) []request {
	var out []request
	for s := 0; len(out) < w.verifyReqs; s++ {
		sess := newSession(w.trace, g, seed^0x5EED5EED, s)
		for k := 0; k < 100 && len(out) < w.verifyReqs; k++ {
			out = append(out, sess.next())
		}
	}
	return out
}

// fetchAll sends each request to the server and keeps the bodies; a
// failed request keeps a nil body.
func fetchAll(c *http.Client, base string, reqs []request) (bodies [][]byte, failures []string) {
	bodies = make([][]byte, len(reqs))
	for i, r := range reqs {
		body, err := do(c, base, r)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		bodies[i] = body
	}
	return bodies, failures
}

// compareAll checks each fetched body against the reference estimator's
// answer, byte for byte, and describes the first mismatches.
func compareAll(ref core.Estimator, g *grid.Grid, reqs []request, bodies [][]byte) (mismatches int, notes []string) {
	for i, r := range reqs {
		if bodies[i] == nil {
			continue // already counted as a failed request
		}
		want, _, err := answer(ref, g, r, nil)
		if err == nil && bytes.Equal(want, bodies[i]) {
			continue
		}
		mismatches++
		if len(notes) < 3 {
			if err != nil {
				notes = append(notes, fmt.Sprintf("%s: reference failed: %v", r.path, err))
			} else {
				notes = append(notes, fmt.Sprintf("%s: served %d bytes, reference %d bytes, first difference at byte %d",
					r.path, len(bodies[i]), len(want), firstDiff(want, bodies[i])))
			}
		}
	}
	return mismatches, notes
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// reference holds what the benchmark builds in-process from the seeded
// data: the base M-EulerApprox estimator, and for traced runs the zoom
// stack geobrowsed serves by default (pyramids of up to 4 levels).
type reference struct {
	base    *core.MEuler
	zoom    core.Estimator
	buildMs float64 // base build plus pyramids
}

func buildReference(in *inputs, withZoom bool) (*reference, error) {
	start := time.Now()
	m, err := core.NewMEuler(in.grid, areas, in.data.Rects)
	if err != nil {
		return nil, err
	}
	ref := &reference{base: m, zoom: m}
	if withZoom {
		hists := m.Histograms()
		pyrs := make([]*euler.Pyramid, len(hists))
		for i, h := range hists {
			pyrs[i] = euler.NewPyramid(h, euler.PyramidOpts{MaxLevels: 4})
		}
		if pyrs[0].Levels() > 1 {
			if ref.zoom, err = core.ZoomMEuler(areas, pyrs); err != nil {
				return nil, err
			}
		}
	}
	ref.buildMs = float64(time.Since(start)) / float64(time.Millisecond)
	return ref, nil
}

// liveReference is the shard-ingest oracle: one in-process live store over
// the whole seed plus every acknowledged ingest, flushed.
func liveReference(in *inputs, acked [][4]float64) (core.Estimator, func(), error) {
	store, err := live.Open(live.Config{
		Grid: in.grid, Algo: live.AlgoMEuler, Areas: areas, Seed: in.data.Rects,
		RebuildEvery: -1, PyramidLevels: 4,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, r := range acked {
		if _, err := store.Insert(geomRect(r)); err != nil {
			store.Close()
			return nil, nil, err
		}
	}
	if err := store.Flush(); err != nil {
		store.Close()
		return nil, nil, err
	}
	est, _ := store.CurrentEstimator()
	return est, func() { _ = store.Close() }, nil
}

func geomRect(r [4]float64) geom.Rect { return geom.NewRect(r[0], r[1], r[2], r[3]) }

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
