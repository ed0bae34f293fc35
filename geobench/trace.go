package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"spatialhist/internal/grid"
)

// The request model. A browse session is a state machine over a viewport:
// a user lands on an overview, zooms toward a focus, pans, drills into a
// hot region, hovers one tile, or abandons the region for a new focus.
// Foci are drawn from seeded hotspots with Zipf-ranked popularity, because
// spatial exploration concentrates on hot regions (the GeoBlocks workload
// argument); flash crowds periodically send every session to the top
// hotspot. Ingest is a separate open-loop stream of fixed-size batches.
//
// Everything is a pure function of the seed and the grid, so a seed fixes
// the request stream bit for bit (streamHash is the witness).

type op uint8

const (
	opZoomIn op = iota
	opPan
	opZoomOut
	opDrill
	opQuery
	opNewFocus
)

// opWeights is the transition distribution: mostly zooming and panning
// (each re-renders a tile map), some drills and single-tile hovers, and a
// steady trickle of abandoned foci.
var opWeights = []struct {
	op op
	w  float64
}{
	{opZoomIn, 0.30},
	{opPan, 0.30},
	{opZoomOut, 0.10},
	{opDrill, 0.10},
	{opQuery, 0.10},
	{opNewFocus, 0.10},
}

// Endpoints of the browse path and the write path.
const (
	epBrowse = "/api/browse"
	epDrill  = "/api/drill"
	epQuery  = "/api/query"
	epIngest = "/api/ingest"
)

// request is one generated HTTP request.
type request struct {
	endpoint string // route pattern, e.g. epBrowse
	path     string // path with query string
	body     []byte // JSON body of ingest batches, nil for GETs
	rects    [][4]float64
}

// traceOpts shapes the browse sessions of one workload.
type traceOpts struct {
	hotspots   int     // Zipf focal points
	zipfS      float64 // Zipf exponent over hotspot ranks, > 1
	maxCols    int     // tile-map width bound
	maxRows    int     // tile-map height bound
	flashEvery int     // flash-crowd period in requests per session; 0 disables
	flashLen   int     // flash-crowd window length in requests
}

type cell struct{ i, j int }

// session generates one client's deterministic browse stream.
type session struct {
	o        traceOpts
	g        *grid.Grid
	rng      *rand.Rand
	zipf     *rand.Zipf
	hotspots []cell

	viewport grid.Span
	cols     int
	rows     int
	focus    cell
	reqs     int // requests generated so far (flash-crowd clock)
}

// newSession derives session w of a stream from seed. Hotspot placement
// depends on the seed alone, so every session shares one notion of where
// the interesting regions are; the rest is split per session.
func newSession(o traceOpts, g *grid.Grid, seed int64, w int) *session {
	hrng := rand.New(rand.NewSource(seed))
	hotspots := make([]cell, o.hotspots)
	for i := range hotspots {
		hotspots[i] = cell{hrng.Intn(g.NX()), hrng.Intn(g.NY())}
	}
	rng := rand.New(rand.NewSource(seed ^ (int64(w)+1)*0x1E3779B97F4A7C15))
	s := &session{
		o:        o,
		g:        g,
		rng:      rng,
		zipf:     rand.NewZipf(rng, o.zipfS, 1, uint64(o.hotspots-1)),
		hotspots: hotspots,
	}
	s.reset()
	return s
}

// reset starts a fresh sub-session: full-extent overview, new focus.
func (s *session) reset() {
	s.viewport = grid.Span{I1: 0, J1: 0, I2: s.g.NX() - 1, J2: s.g.NY() - 1}
	s.cols = largestDivisorAtMost(s.g.NX(), s.o.maxCols)
	s.rows = largestDivisorAtMost(s.g.NY(), s.o.maxRows)
	s.focus = s.hotspots[s.zipf.Uint64()]
}

// largestDivisorAtMost returns the largest divisor of n that is <= max
// (at least 1), so every tiling divides its region exactly.
func largestDivisorAtMost(n, max int) int {
	for d := max; d > 1; d-- {
		if n%d == 0 {
			return d
		}
	}
	return 1
}

// next generates the session's next request; the stream is infinite.
func (s *session) next() request {
	focus := s.focus
	if s.o.flashEvery > 0 && s.reqs%s.o.flashEvery < s.o.flashLen {
		focus = s.hotspots[0]
	}
	s.reqs++

	x := s.rng.Float64()
	var o op
	acc := 0.0
	for _, ow := range opWeights {
		acc += ow.w
		if x < acc {
			o = ow.op
			break
		}
	}
	switch o {
	case opZoomIn:
		s.zoomToward(focus, true)
	case opZoomOut:
		s.zoomToward(focus, false)
	case opPan:
		s.pan()
	case opDrill:
		return s.drillRequest()
	case opQuery:
		return s.queryRequest()
	default:
		s.reset()
	}
	return s.browseRequest()
}

// zoomToward halves (or doubles) the viewport around the focus, clamped
// to the grid and kept divisible by the session's tiling.
func (s *session) zoomToward(focus cell, in bool) {
	w, h := s.viewport.Width(), s.viewport.Height()
	if in {
		w, h = w/2, h/2
	} else {
		w, h = w*2, h*2
	}
	nx, ny := s.g.NX(), s.g.NY()
	w = clampInt(roundToMultiple(w, s.cols), s.cols, nx-nx%s.cols)
	h = clampInt(roundToMultiple(h, s.rows), s.rows, ny-ny%s.rows)
	i1 := clampInt(focus.i-w/2, 0, nx-w)
	j1 := clampInt(focus.j-h/2, 0, ny-h)
	s.viewport = grid.Span{I1: i1, J1: j1, I2: i1 + w - 1, J2: j1 + h - 1}
}

// pan shifts the viewport by one tile in a random direction.
func (s *session) pan() {
	tw := s.viewport.Width() / s.cols
	th := s.viewport.Height() / s.rows
	di := (s.rng.Intn(3) - 1) * tw
	dj := (s.rng.Intn(3) - 1) * th
	w, h := s.viewport.Width(), s.viewport.Height()
	i1 := clampInt(s.viewport.I1+di, 0, s.g.NX()-w)
	j1 := clampInt(s.viewport.J1+dj, 0, s.g.NY()-h)
	s.viewport = grid.Span{I1: i1, J1: j1, I2: i1 + w - 1, J2: j1 + h - 1}
}

func (s *session) browseRequest() request {
	return request{
		endpoint: epBrowse,
		path: epBrowse + "?" + regionParams(s.g, s.viewport) +
			"&cols=" + strconv.Itoa(s.cols) + "&rows=" + strconv.Itoa(s.rows),
	}
}

// queryRequest estimates one tile of the viewport: the hover interaction.
func (s *session) queryRequest() request {
	tw := s.viewport.Width() / s.cols
	th := s.viewport.Height() / s.rows
	col, row := s.rng.Intn(s.cols), s.rng.Intn(s.rows)
	span := grid.Span{I1: s.viewport.I1 + col*tw, J1: s.viewport.J1 + row*th}
	span.I2 = span.I1 + tw - 1
	span.J2 = span.J1 + th - 1
	return request{endpoint: epQuery, path: epQuery + "?" + regionParams(s.g, span)}
}

func (s *session) drillRequest() request {
	hot := 1 + s.rng.Intn(64)
	depth := 2 + s.rng.Intn(3)
	return request{
		endpoint: epDrill,
		path: epDrill + "?" + regionParams(s.g, s.viewport) +
			"&relation=overlap&hot=" + strconv.Itoa(hot) + "&depth=" + strconv.Itoa(depth),
	}
}

// regionParams renders a span's rectangle. Shortest round-trip formatting
// makes the server parse back the identical float64, so the span aligns.
func regionParams(g *grid.Grid, span grid.Span) string {
	r := g.SpanRect(span)
	var b strings.Builder
	for i, v := range [4]float64{r.XMin, r.YMin, r.XMax, r.YMax} {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString([4]string{"x1=", "y1=", "x2=", "y2="}[i])
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return b.String()
}

// ingestStream generates the open-loop write stream: batches of batch
// cell-aligned rects of 1..4 cells per side, uniform over the grid.
type ingestStream struct {
	g     *grid.Grid
	rng   *rand.Rand
	batch int
}

// newIngestStream splits the ingest seed space away from the browse
// sessions, so the write stream never perturbs the browse stream.
func newIngestStream(g *grid.Grid, seed int64, batch int) *ingestStream {
	return &ingestStream{g: g, rng: rand.New(rand.NewSource(seed ^ 0x1005 ^ 0x3F58476D1CE4E5B9)), batch: batch}
}

func (s *ingestStream) next() request {
	rects := make([][4]float64, s.batch)
	for k := range rects {
		i, j := s.rng.Intn(s.g.NX()), s.rng.Intn(s.g.NY())
		w, h := 1+s.rng.Intn(4), 1+s.rng.Intn(4)
		span := grid.Span{I1: i, J1: j,
			I2: clampInt(i+w-1, 0, s.g.NX()-1), J2: clampInt(j+h-1, 0, s.g.NY()-1)}
		r := s.g.SpanRect(span)
		rects[k] = [4]float64{r.XMin, r.YMin, r.XMax, r.YMax}
	}
	return ingestRequest(rects, false)
}

// ingestRequest renders a batch as a POST /api/ingest request; flush asks
// every shard that receives a rect to publish a snapshot at once.
func ingestRequest(rects [][4]float64, flush bool) request {
	var b strings.Builder
	b.WriteString(`{"rects":[`)
	for k, r := range rects {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%s,%s,%s,%s]",
			strconv.FormatFloat(r[0], 'g', -1, 64), strconv.FormatFloat(r[1], 'g', -1, 64),
			strconv.FormatFloat(r[2], 'g', -1, 64), strconv.FormatFloat(r[3], 'g', -1, 64))
	}
	b.WriteString(`]}`)
	path := epIngest
	if flush {
		path += "?flush=1"
	}
	return request{endpoint: epIngest, path: path, body: []byte(b.String()), rects: rects}
}

// streamHash fingerprints the first n requests of every browse session and
// of the ingest stream (when batch > 0), plus the verification list: the
// determinism witness each run prints. Same seed and grid, same hash.
func streamHash(o traceOpts, g *grid.Grid, seed int64, sessions, batch, n int, verify []request) uint64 {
	h := fnv.New64a()
	for w := 0; w < sessions; w++ {
		s := newSession(o, g, seed, w)
		for k := 0; k < n; k++ {
			fmt.Fprintf(h, "%d %s\n", w, s.next().path)
		}
	}
	if batch > 0 {
		s := newIngestStream(g, seed, batch)
		for k := 0; k < n; k++ {
			r := s.next()
			fmt.Fprintf(h, "i %s %s\n", r.path, r.body)
		}
	}
	for _, r := range verify {
		fmt.Fprintf(h, "v %s\n", r.path)
	}
	return h.Sum64()
}

func clampInt(v, lo, hi int) int {
	return max(lo, min(v, hi))
}

// roundToMultiple rounds v down to a multiple of m (at least m).
func roundToMultiple(v, m int) int {
	if v < m {
		return m
	}
	return v / m * m
}
