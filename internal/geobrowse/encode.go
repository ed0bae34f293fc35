package geobrowse

import (
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// Response encoding. Every tile-bearing response — browse maps (plain and
// faceted), drill leaves and single-tile queries, on both the Server and
// the shard coordinator front — is rendered by appending bytes, not by
// encoding/json's reflection. The bytes are identical to json.Marshal of
// the reference types (BrowseResponse, FacetedBrowseResponse,
// DrillResponse, TileEstimate, built by TileEstimates and
// NewTileEstimate); the encode-vs-json oracle in internal/check holds the
// two paths to that.
//
// Tile rectangles are where the time goes: a 90×45 map carries 16,200
// floats. grid.SpanRect computes a tile's XMin from boundary I1 and its
// XMax from boundary I2+1 with the same expression (YMin/YMax likewise
// from J1 and J2+1), so every edge value is a function of its boundary
// index alone. The encoder formats each boundary a response touches once
// and copies its text into every tile that shares it: a 90×45 map
// formats 137 floats, and a tile costs four copies and four AppendInt.

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// the shortest 'f' form, or 'e' form when |f| < 1e-6 or |f| >= 1e21 with
// a two-digit negative exponent trimmed (e-07 → e-7); -0 stays "-0". NaN
// and ±Inf have no JSON form and are an error, as in json.Marshal.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendJSONString appends s as a JSON string. Only strings that
// encoding/json copies verbatim (printable ASCII without ", \, <, > or &)
// are accepted — the relation names are the only strings a tile response
// carries.
func appendJSONString(b []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return b, fmt.Errorf("geobrowse: string %q needs JSON escaping", s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), nil
}

// edgeText memoizes the JSON text of one axis's tile edges by slot (a
// boundary index relative to the response's region). A slot is formatted
// on first put; later puts of the same slot carry the same value (see
// above) and are free.
type edgeText struct {
	text []byte
	at   [][2]int32 // slot → [start, end) in text; end 0 = not yet formatted
	err  error      // first formatting error
}

func (e *edgeText) reset(slots int) {
	e.text, e.err = e.text[:0], nil
	if cap(e.at) < slots {
		e.at = make([][2]int32, slots)
		return
	}
	e.at = e.at[:slots]
	clear(e.at)
}

func (e *edgeText) put(slot int, v float64) {
	s := &e.at[slot]
	if s[1] != 0 {
		return
	}
	start := len(e.text)
	var err error
	if e.text, err = appendJSONFloat(e.text, v); err != nil {
		if e.err == nil {
			e.err = err
		}
		return
	}
	s[0], s[1] = int32(start), int32(len(e.text))
}

func (e *edgeText) get(slot int) []byte {
	s := e.at[slot]
	return e.text[s[0]:s[1]]
}

// edges is one response's pair of axis memos; pooled, so a steady stream
// of requests reuses the slot tables.
type edges struct{ x, y edgeText }

var edgesPool = sync.Pool{New: func() any { return new(edges) }}

func getEdges(xSlots, ySlots int) *edges {
	e := edgesPool.Get().(*edges)
	e.x.reset(xSlots)
	e.y.reset(ySlots)
	return e
}

func (e *edges) err() error {
	if e.x.err != nil {
		return e.x.err
	}
	return e.y.err
}

// appendTileBody appends one tile object without its closing brace, so a
// drill leaf can add its depth: {"rect":[x1,y1,x2,y2],"disjoint":…,
// "overlap":N. Counts are clamped as Estimate.Clamped does.
func appendTileBody(b, x1, y1, x2, y2 []byte, e core.Estimate) []byte {
	b = append(b, `{"rect":[`...)
	b = append(b, x1...)
	b = append(b, ',')
	b = append(b, y1...)
	b = append(b, ',')
	b = append(b, x2...)
	b = append(b, ',')
	b = append(b, y2...)
	b = append(b, `],"disjoint":`...)
	b = strconv.AppendInt(b, max(e.Disjoint, 0), 10)
	b = append(b, `,"contains":`...)
	b = strconv.AppendInt(b, max(e.Contains, 0), 10)
	b = append(b, `,"contained":`...)
	b = strconv.AppendInt(b, max(e.Contained, 0), 10)
	b = append(b, `,"overlap":`...)
	return strconv.AppendInt(b, max(e.Overlap, 0), 10)
}

// tileFixed is the punctuation and keys of one rendered tile.
const tileFixed = len(`{"rect":[,,,],"disjoint":,"contains":,"contained":,"overlap":}`)

// mapHeadroom covers a map body's header and trailer: cols, rows, the
// matching count or the ε bound, and their keys.
const mapHeadroom = 128

// prepareTileMap formats the tile edges of a row-major map and returns
// them with the exact length of its "tiles" array, so the body is
// written into one allocation. The caller returns e to edgesPool.
func prepareTileMap(g *grid.Grid, region grid.Span, cols, rows int, ests []core.Estimate) (e *edges, size int, err error) {
	if cols <= 0 || rows <= 0 || len(ests) != cols*rows {
		return nil, 0, fmt.Errorf("geobrowse: %d estimates for a %dx%d tile map", len(ests), cols, rows)
	}
	tw := region.Width() / cols
	th := region.Height() / rows
	e = getEdges(cols+1, rows+1)
	for c := 0; c < cols; c++ {
		i1 := region.I1 + c*tw
		r := g.SpanRect(grid.Span{I1: i1, J1: region.J1, I2: i1 + tw - 1, J2: region.J1})
		e.x.put(c, r.XMin)
		e.x.put(c+1, r.XMax)
	}
	for row := 0; row < rows; row++ {
		j1 := region.J1 + row*th
		r := g.SpanRect(grid.Span{I1: region.I1, J1: j1, I2: region.I1, J2: j1 + th - 1})
		e.y.put(row, r.YMin)
		e.y.put(row+1, r.YMax)
	}
	if err := e.err(); err != nil {
		edgesPool.Put(e)
		return nil, 0, err
	}
	// Inner edges appear in two tiles per row (column), outer ones in one.
	size = 2 + len(ests)*(tileFixed+1) - 1
	size += rows * (2*len(e.x.text) - len(e.x.get(0)) - len(e.x.get(cols)))
	size += cols * (2*len(e.y.text) - len(e.y.get(0)) - len(e.y.get(rows)))
	for _, est := range ests {
		size += decLen(est.Disjoint) + decLen(est.Contains) + decLen(est.Contained) + decLen(est.Overlap)
	}
	return e, size, nil
}

// appendTileMap appends the "tiles" array prepared by prepareTileMap: the
// bytes json.Marshal gives TileEstimates(g, region, cols, rows, ests).
func appendTileMap(b []byte, e *edges, cols, rows int, ests []core.Estimate) []byte {
	b = append(b, '[')
	k := 0
	for row := 0; row < rows; row++ {
		y1, y2 := e.y.get(row), e.y.get(row+1)
		for c := 0; c < cols; c++ {
			if k > 0 {
				b = append(b, ',')
			}
			b = appendTileBody(b, e.x.get(c), y1, e.x.get(c+1), y2, ests[k])
			b = append(b, '}')
			k++
		}
	}
	return append(b, ']')
}

// pow10 holds 10^0 … 10^18 for decLen.
var pow10 = [19]int64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// decLen returns the decimal length of a count as rendered: clamped to
// 0, then base 10.
func decLen(v int64) int {
	if v <= 0 {
		return 1
	}
	d := bits.Len64(uint64(v)) * 1233 >> 12 // ⌊log10⌋ or one less
	if v >= pow10[d] {
		d++
	}
	return d
}

// appendMapHeader appends {"cols":C,"rows":R,
func appendMapHeader(b []byte, cols, rows int) []byte {
	b = append(b, `{"cols":`...)
	b = strconv.AppendInt(b, int64(cols), 10)
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(rows), 10)
	return append(b, ',')
}

// AppendBrowse appends the /api/browse body for a row-major tile map of
// raw estimates over region: the bytes of json.Marshal(BrowseResponse{
// Cols, Rows, TileEstimates(g, region, cols, rows, ests), bound}). bound,
// when non-nil, is the certified error of an ε-approximate map. ests must
// hold exactly cols×rows estimates. dst grows at most once, so
// AppendBrowse(nil, …) returns an exactly-sized body.
func AppendBrowse(dst []byte, g *grid.Grid, region grid.Span, cols, rows int, ests []core.Estimate, bound *float64) ([]byte, error) {
	var stage [32]byte
	var boundText []byte
	if bound != nil {
		var err error
		if boundText, err = appendJSONFloat(stage[:0], *bound); err != nil {
			return dst, err
		}
	}
	e, size, err := prepareTileMap(g, region, cols, rows, ests)
	if err != nil {
		return dst, err
	}
	defer edgesPool.Put(e)
	b := slices.Grow(dst, size+mapHeadroom)
	b = append(appendMapHeader(b, cols, rows), `"tiles":`...)
	b = appendTileMap(b, e, cols, rows, ests)
	if bound != nil {
		b = append(b, `,"approxErrorBound":`...)
		b = append(b, boundText...)
	}
	return append(b, '}'), nil
}

// AppendFacetedBrowse appends the archive /api/browse body: the bytes of
// json.Marshal(FacetedBrowseResponse{Cols, Rows, matching,
// TileEstimates(g, region, cols, rows, ests)}). Like AppendBrowse, dst
// grows at most once.
func AppendFacetedBrowse(dst []byte, g *grid.Grid, region grid.Span, cols, rows int, matching int64, ests []core.Estimate) ([]byte, error) {
	e, size, err := prepareTileMap(g, region, cols, rows, ests)
	if err != nil {
		return dst, err
	}
	defer edgesPool.Put(e)
	b := slices.Grow(dst, size+mapHeadroom)
	b = append(appendMapHeader(b, cols, rows), `"matching":`...)
	b = strconv.AppendInt(b, matching, 10)
	b = append(b, `,"tiles":`...)
	b = appendTileMap(b, e, cols, rows, ests)
	return append(b, '}'), nil
}

// AppendTile appends the /api/query body for one raw estimate over span:
// the bytes of json.Marshal(NewTileEstimate(g, span, e)).
func AppendTile(dst []byte, g *grid.Grid, span grid.Span, e core.Estimate) ([]byte, error) {
	r := g.SpanRect(span)
	var stage [128]byte
	s := stage[:0]
	var end [4]int
	for i, f := range [4]float64{r.XMin, r.YMin, r.XMax, r.YMax} {
		var err error
		if s, err = appendJSONFloat(s, f); err != nil {
			return dst, err
		}
		end[i] = len(s)
	}
	b := appendTileBody(dst, s[:end[0]], s[end[0]:end[1]], s[end[1]:end[2]], s[end[2]:end[3]], e)
	return append(b, '}'), nil
}

// AppendDrill appends the /api/drill body for drill-down leaves over a
// region: the bytes of json.Marshal(DrillResponse) with one DrillTile per
// leaf, rendered from the leaf's own estimate.
func AppendDrill(dst []byte, g *grid.Grid, region grid.Span, rel geom.Rel2, leaves []core.DrillTile) ([]byte, error) {
	b := append(dst, `{"relation":`...)
	b, err := appendJSONString(b, rel.String())
	if err != nil {
		return dst, err
	}
	b = append(b, `,"tiles":[`...)
	// Leaves partition the region, so every boundary they touch lies in
	// [I1, I2+1] × [J1, J2+1].
	e := getEdges(region.Width()+1, region.Height()+1)
	defer edgesPool.Put(e)
	for k, l := range leaves {
		s := l.Span
		if s.I1 < region.I1 || s.I2 > region.I2 || s.J1 < region.J1 || s.J2 > region.J2 {
			return dst, fmt.Errorf("geobrowse: drill leaf %v outside region %v", s, region)
		}
		r := g.SpanRect(s)
		x1, x2 := s.I1-region.I1, s.I2+1-region.I1
		y1, y2 := s.J1-region.J1, s.J2+1-region.J1
		e.x.put(x1, r.XMin)
		e.y.put(y1, r.YMin)
		e.x.put(x2, r.XMax)
		e.y.put(y2, r.YMax)
		if err := e.err(); err != nil {
			return dst, err
		}
		if k > 0 {
			b = append(b, ',')
		}
		b = appendTileBody(b, e.x.get(x1), e.y.get(y1), e.x.get(x2), e.y.get(y2), l.Estimate)
		b = append(b, `,"depth":`...)
		b = strconv.AppendInt(b, int64(l.Depth), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// maxPooledBuf bounds the encode buffers kept for reuse; a rare huge map
// is not worth pinning.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeEncoded renders a response with appendTo into a pooled buffer
// and writes it. An encoding failure is a server bug: it is logged,
// counted and answered with a 500 before anything is committed, as
// writeJSON does.
func writeEncoded(w http.ResponseWriter, what string, appendTo func([]byte) ([]byte, error)) {
	bp := bufPool.Get().(*[]byte)
	b, err := appendTo((*bp)[:0])
	if err != nil {
		writeEncodeError(w, what, err)
	} else {
		writeJSONBytes(w, b)
	}
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		bufPool.Put(bp)
	}
}

// WriteTile writes the /api/query response for one raw estimate.
func WriteTile(w http.ResponseWriter, g *grid.Grid, span grid.Span, e core.Estimate) {
	writeEncoded(w, "tile", func(b []byte) ([]byte, error) { return AppendTile(b, g, span, e) })
}

// WriteBrowse writes the /api/browse response for a row-major map of raw
// estimates — the exact-map response a Server renders, for front-ends
// (the shard coordinator) that compute maps without a cache.
func WriteBrowse(w http.ResponseWriter, g *grid.Grid, region grid.Span, cols, rows int, ests []core.Estimate) {
	writeEncoded(w, "browse map", func(b []byte) ([]byte, error) {
		return AppendBrowse(b, g, region, cols, rows, ests, nil)
	})
}

// WriteDrill writes the /api/drill response for drill-down leaves.
func WriteDrill(w http.ResponseWriter, g *grid.Grid, region grid.Span, rel geom.Rel2, leaves []core.DrillTile) {
	writeEncoded(w, "drill leaves", func(b []byte) ([]byte, error) {
		return AppendDrill(b, g, region, rel, leaves)
	})
}
