package shard

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

func TestEstimateFrameRoundTrip(t *testing.T) {
	ests := []core.Estimate{
		{Disjoint: math.MinInt64, Contains: math.MaxInt64, Contained: -1, Overlap: 0},
		{Disjoint: -7, Contains: -3, Contained: math.MinInt64 + 1, Overlap: math.MaxInt64 - 1},
		{Disjoint: 12, Contains: 0, Contained: 3, Overlap: 40},
	}
	for _, gen := range []uint64{0, 1, math.MaxUint64} {
		b := encodeEstimates(gen, ests)
		if len(b) != estimateFrameBytes(len(ests)) {
			t.Fatalf("frame is %d bytes, want %d", len(b), estimateFrameBytes(len(ests)))
		}
		gotGen, got, err := decodeEstimates(b, len(ests))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gotGen != gen {
			t.Fatalf("generation %d, want %d", gotGen, gen)
		}
		estimatesEqual(t, "round trip", got, ests)
		for _, want := range []int{len(ests) - 1, len(ests) + 1} {
			if _, _, err := decodeEstimates(b, want); err == nil {
				t.Fatalf("frame of %d estimates accepted as %d", len(ests), want)
			}
		}
	}
	// An empty answer is still a frame: the generation word alone.
	if _, got, err := decodeEstimates(encodeEstimates(3, nil), 0); err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %v, %d estimates", err, len(got))
	}
}

func TestRequestFrameRoundTrip(t *testing.T) {
	region := grid.Span{I1: 1, J1: 2, I2: 30, J2: 31}
	gotRegion, cols, rows, err := decodeGridRequest(encodeGridRequest(region, 5, 6))
	if err != nil || gotRegion != region || cols != 5 || rows != 6 {
		t.Fatalf("grid request = %v %dx%d (%v), want %v 5x6", gotRegion, cols, rows, err, region)
	}
	spans := []grid.Span{{I1: 0, J1: 0, I2: 0, J2: 0}, {I1: -1, J1: math.MaxInt32, I2: 7, J2: -9}}
	got, err := decodeSpansRequest(encodeSpansRequest(spans))
	if err != nil {
		t.Fatalf("spans request: %v", err)
	}
	if len(got) != len(spans) || got[0] != spans[0] || got[1] != spans[1] {
		t.Fatalf("spans request = %v, want %v", got, spans)
	}
}

// TestNodeRejectsBadFrames: every malformed request is answered 400 (or
// 415 for a body that is not a frame) before any estimate is served.
func TestNodeRejectsBadFrames(t *testing.T) {
	g := testGrid(t)
	store := openTestStore(t, g, "", "node")
	reg := telemetry.NewRegistry()
	h := NodeHandler(store, reg)

	full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
	words := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = appendWord(b, v)
		}
		return b
	}
	for _, tc := range []struct {
		name, path, ctype string
		body              []byte
		want              int
	}{
		{"empty grid body", "/api/shard/estimate", frameType, nil, 400},
		{"empty spans body", "/api/shard/spans", frameType, nil, 400},
		{"partial word", "/api/shard/spans", frameType, make([]byte, 12), 400},
		{"partial span", "/api/shard/spans", frameType, words(0, 0, 0), 400},
		{"short grid frame", "/api/shard/estimate", frameType, words(0, 0, 31, 31, 1), 400},
		{"long grid frame", "/api/shard/estimate", frameType, words(0, 0, 31, 31, 1, 1, 1), 400},
		{"out-of-grid span", "/api/shard/spans", frameType, encodeSpansRequest([]grid.Span{{I1: 0, J1: 0, I2: g.NX(), J2: 0}}), 400},
		{"negative span", "/api/shard/spans", frameType, words(-1, 0, 0, 0), 400},
		{"out-of-grid region", "/api/shard/estimate", frameType, encodeGridRequest(grid.Span{I1: 0, J1: 0, I2: 0, J2: g.NY()}, 1, 1), 400},
		{"zero tiling", "/api/shard/estimate", frameType, encodeGridRequest(full, 0, 4), 400},
		{"oversized tiling", "/api/shard/estimate", frameType, encodeGridRequest(full, 1000, 1000), 400},
		{"overflowing tiling", "/api/shard/estimate", frameType, words(0, 0, 31, 31, 1<<32, 1<<32), 400},
		{"oversized span batch", "/api/shard/spans", frameType, encodeSpansRequest(make([]grid.Span, maxSpanBatch+1)), 400},
		{"JSON grid request", "/api/shard/estimate", "application/json", []byte(`{"region":[0,0,31,31],"cols":1,"rows":1}`), 415},
		{"JSON spans request", "/api/shard/spans", "application/json", []byte(`{"spans":[[0,0,0,0]]}`), 415},
		{"untyped frame", "/api/shard/spans", "", words(0, 0, 0, 0), 415},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body))
		if tc.ctype != "" {
			req.Header.Set("Content-Type", tc.ctype)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
		}
	}
	for kind, n := range reg.CounterValues("shard_node_estimate_total") {
		if n != 0 {
			t.Fatalf("%s: %d batches served from malformed requests", kind, n)
		}
	}

	// The same handler answers a well-formed frame.
	req := httptest.NewRequest(http.MethodPost, "/api/shard/estimate", bytes.NewReader(encodeGridRequest(full, 4, 4)))
	req.Header.Set("Content-Type", frameType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != frameType {
		t.Fatalf("well-formed frame: status %d type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if _, got, err := decodeEstimates(rec.Body.Bytes(), 16); err != nil || len(got) != 16 {
		t.Fatalf("well-formed frame answer: %v", err)
	}
}

// FuzzEstimateFrame: the frame decoders never panic, accept exactly the
// well-formed lengths, and what they accept re-encodes to the same bytes.
func FuzzEstimateFrame(f *testing.F) {
	f.Add(encodeEstimates(7, []core.Estimate{{Disjoint: -1, Contains: math.MaxInt64}}), uint16(1))
	f.Add(encodeGridRequest(grid.Span{I1: 0, J1: 0, I2: 3, J2: 3}, 2, 2), uint16(1))
	f.Add(encodeSpansRequest([]grid.Span{{I1: 1, J1: 2, I2: 3, J2: 4}}), uint16(0))
	f.Add([]byte{1, 2, 3}, uint16(0))
	f.Fuzz(func(t *testing.T, b []byte, n uint16) {
		want := int(n)
		gen, ests, err := decodeEstimates(b, want)
		if ok := len(b) == estimateFrameBytes(want); ok != (err == nil) {
			t.Fatalf("decodeEstimates(%d bytes, %d): err %v", len(b), want, err)
		}
		if err == nil && !bytes.Equal(encodeEstimates(gen, ests), b) {
			t.Fatal("estimate frame does not re-encode to its bytes")
		}

		region, cols, rows, err := decodeGridRequest(b)
		if ok := len(b) == gridWords*wordBytes; ok != (err == nil) {
			t.Fatalf("decodeGridRequest(%d bytes): err %v", len(b), err)
		}
		if err == nil && !bytes.Equal(encodeGridRequest(region, cols, rows), b) {
			t.Fatal("grid frame does not re-encode to its bytes")
		}

		spans, err := decodeSpansRequest(b)
		size := spanWords * wordBytes
		if ok := len(b) > 0 && len(b)%size == 0 && len(b)/size <= maxSpanBatch; ok != (err == nil) {
			t.Fatalf("decodeSpansRequest(%d bytes): err %v", len(b), err)
		}
		if err == nil && !bytes.Equal(encodeSpansRequest(spans), b) {
			t.Fatal("spans frame does not re-encode to its bytes")
		}
	})
}
