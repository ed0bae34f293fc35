package geobrowse

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -2.5, 360, 1.0 / 3,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1.5e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), 1e22, -1e21, 1e100,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendJSONFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, %v; json.Marshal = %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("json.Marshal(%v) succeeded", f)
		}
		if _, err := appendJSONFloat(nil, f); err == nil {
			t.Errorf("appendJSONFloat(%v) succeeded; JSON has no form for it", f)
		}
	}
}

// FuzzAppendBrowse: for any finite grid extent, tiling and raw counts,
// AppendBrowse is byte-identical to json.Marshal of the reference
// BrowseResponse, or both fail.
func FuzzAppendBrowse(f *testing.F) {
	f.Add(0.0, 360.0, 0.0, 180.0, uint8(36), uint8(18), uint8(6), uint8(3), int64(1), 0.25, true)
	f.Add(-1e-6, 1e-5, 0.0, 4e21, uint8(10), uint8(4), uint8(5), uint8(2), int64(2), math.Copysign(0, -1), true)
	f.Add(0.0, 5e-320, -3.0, 7.0, uint8(7), uint8(7), uint8(7), uint8(1), int64(3), 0.0, false)
	f.Fuzz(func(t *testing.T, x0, w, y0, h float64, nx, ny, cols, rows uint8, seed int64, bound float64, hasBound bool) {
		ext := geom.Rect{XMin: x0, YMin: y0, XMax: x0 + w, YMax: y0 + h}
		if nx == 0 || ny == 0 || !ext.Valid() || ext.Degenerate() {
			return
		}
		c, r := int(cols)%int(nx)+1, int(rows)%int(ny)+1
		g := grid.New(ext, int(nx), int(ny))
		region := grid.Span{I1: 0, J1: 0, I2: c*(int(nx)/c) - 1, J2: r*(int(ny)/r) - 1}
		rng := rand.New(rand.NewSource(seed))
		count := func() int64 {
			switch rng.Intn(4) {
			case 0:
				return -rng.Int63()
			case 1:
				return math.MaxInt64 - rng.Int63n(16)
			}
			return rng.Int63n(1 << 20)
		}
		ests := make([]core.Estimate, c*r)
		for i := range ests {
			ests[i] = core.Estimate{Disjoint: count(), Contains: count(), Contained: count(), Overlap: count()}
		}
		var bp *float64
		if hasBound {
			bp = &bound
		}
		want, wantErr := json.Marshal(BrowseResponse{Cols: c, Rows: r,
			Tiles: TileEstimates(g, region, c, r, ests), ApproxErrorBound: bp})
		got, err := AppendBrowse([]byte("prefix"), g, region, c, r, ests, bp)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendBrowse error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("failed AppendBrowse changed dst: %q", got)
			}
			return
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendBrowse:\n got %s\nwant prefix%s", got, want)
		}
	})
}

// countingEstimator counts Estimate calls reaching the estimator.
type countingEstimator struct {
	core.Estimator
	calls atomic.Int64
}

func (c *countingEstimator) Estimate(q grid.Span) core.Estimate {
	c.calls.Add(1)
	return c.Estimator.Estimate(q)
}

// TestDrillEstimatesEachSpanOnce: a drill request estimates every span
// the refinement evaluates exactly once; leaves are rendered from the
// estimate that decided them, not re-estimated.
func TestDrillEstimatesEachSpanOnce(t *testing.T) {
	g := grid.NewUnit(36, 18)
	h := euler.FromRects(g, []geom.Rect{
		geom.NewRect(2, 2, 4, 4),
		geom.NewRect(10, 5, 30, 15),
		geom.NewRect(2.5, 2.5, 3, 3),
	})
	est := &countingEstimator{Estimator: core.NewEuler(h)}
	srv := httptest.NewServer(NewServer("counting", est))
	defer srv.Close()

	// An odd-by-odd region implies no browse map to warm, so every
	// Estimate call below belongs to the drill itself.
	region := grid.Span{I1: 0, J1: 0, I2: 34, J2: 16}
	opts := core.DrillOptions{Relation: geom.Rel2Contains, HotThreshold: 1, MaxDepth: 3, MaxTiles: DrillMaxTiles}
	evaluated := 0
	if _, err := core.DrilldownBatch(func(spans []grid.Span) ([]core.Estimate, error) {
		evaluated += len(spans)
		return core.EstimateSet(est.Estimator, spans), nil
	}, region, opts); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/api/drill?x1=0&y1=0&x2=35&y2=17&relation=contains&hot=1&depth=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := est.calls.Load(); got != int64(evaluated) {
		t.Fatalf("drill made %d Estimate calls for %d evaluated spans", got, evaluated)
	}
}

// TestServedBodiesMatchReference: what the Server writes for browse,
// query and drill is json.Marshal of the reference response types.
func TestServedBodiesMatchReference(t *testing.T) {
	g := grid.NewUnit(36, 18)
	h := euler.FromRects(g, []geom.Rect{
		geom.NewRect(2, 2, 4, 4),
		geom.NewRect(10, 5, 30, 15),
		geom.NewRect(2.5, 2.5, 3, 3),
	})
	est := core.NewEuler(h)
	srv := httptest.NewServer(NewServer("ref", est))
	defer srv.Close()
	get := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return body
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	region := grid.Span{I1: 0, J1: 0, I2: 35, J2: 17}
	ests, err := core.EstimateGrid(est, region, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(BrowseResponse{Cols: 6, Rows: 3, Tiles: TileEstimates(g, region, 6, 3, ests)})
	if got := get("/api/browse?x1=0&y1=0&x2=36&y2=18&cols=6&rows=3"); !bytes.Equal(got, want) {
		t.Errorf("browse:\n got %s\nwant %s", got, want)
	}

	q := grid.Span{I1: 0, J1: 0, I2: 5, J2: 5}
	want = marshal(NewTileEstimate(g, q, est.Estimate(q)))
	if got := get("/api/query?x1=0&y1=0&x2=6&y2=6"); !bytes.Equal(got, want) {
		t.Errorf("query:\n got %s\nwant %s", got, want)
	}

	leaves, err := core.Drilldown(est, region, core.DrillOptions{
		Relation: geom.Rel2Overlap, HotThreshold: 1, MaxDepth: 2, MaxTiles: DrillMaxTiles})
	if err != nil {
		t.Fatal(err)
	}
	ref := DrillResponse{Relation: "overlap"}
	for _, l := range leaves {
		ref.Tiles = append(ref.Tiles, DrillTile{TileEstimate: NewTileEstimate(g, l.Span, l.Estimate), Depth: l.Depth})
	}
	if got := get("/api/drill?x1=0&y1=0&x2=36&y2=18&relation=overlap&hot=1&depth=2"); !bytes.Equal(got, marshal(ref)) {
		t.Errorf("drill:\n got %s\nwant %s", got, marshal(ref))
	}
}

// TestBrowseEncodeFailureIs500: a map that cannot be rendered is a server
// fault — counted and answered 500 — not a bad request.
func TestBrowseEncodeFailureIs500(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := newHTTPMetrics(reg, nil, "")
	h := m.wrap("/boom", func(w http.ResponseWriter, r *http.Request) {
		_, err := encodeBrowse(appendJSONFloat(nil, math.NaN()))
		writeBrowseError(w, err)
	})
	prevLogf := logf
	logf = func(string, ...any) {}
	defer func() { logf = prevLogf }()

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if got := reg.Counter("geobrowse_http_encode_errors_total", "").Value(); got != 1 {
		t.Errorf("encode errors = %d, want 1", got)
	}
	rec = httptest.NewRecorder()
	writeBrowseError(rec, errors.New("tiling does not divide"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("estimation error answered %d, want 400", rec.Code)
	}
}

func TestDecLen(t *testing.T) {
	for _, v := range []int64{math.MinInt64, -5, 0, 1, 9, 10, 99, 100, 999_999, 1e17, 1e18 - 1, 1e18, math.MaxInt64} {
		want := len(strconv.FormatInt(max(v, 0), 10))
		if got := decLen(v); got != want {
			t.Errorf("decLen(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestAppendBrowseSizesExactly: a browse body is rendered into one
// allocation of its own size, so cached bodies pin no slack (allocation
// counts are gated by BenchmarkBrowseEncode).
func TestAppendBrowseSizesExactly(t *testing.T) {
	g := grid.NewUnit(360, 180)
	region := grid.Span{I1: 0, J1: 0, I2: 359, J2: 179}
	ests := make([]core.Estimate, 90*45)
	for i := range ests {
		ests[i] = core.Estimate{Disjoint: int64(i * 7919), Contains: int64(i % 13), Contained: -1, Overlap: math.MaxInt64}
	}
	bound := 0.5
	body, err := AppendBrowse(nil, g, region, 90, 45, ests, &bound)
	if err != nil {
		t.Fatal(err)
	}
	// Large allocations round up to whole 8 KiB pages.
	if slack := cap(body) - len(body); slack > mapHeadroom+8192 {
		t.Fatalf("body of %d bytes carries %d bytes of slack", len(body), slack)
	}
}

func TestBrowseKeyFormat(t *testing.T) {
	span := grid.Span{I1: 3, J1: 0, I2: 1439, J2: 719}
	got := browseKey(18446744073709551615, 2, span, 90, 45, "~0.05")
	if want := "g18446744073709551615:l2:3,0,1439,719/90x45;~0.05"; got != want {
		t.Fatalf("browseKey = %q, want %q", got, want)
	}
}
