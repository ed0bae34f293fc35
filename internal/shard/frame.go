package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"spatialhist/internal/core"
	"spatialhist/internal/grid"
)

// Frames of the shard-node batch endpoints. Every word is a little-endian
// int64:
//
//	grid request   i1 j1 i2 j2 cols rows
//	spans request  i1 j1 i2 j2, one quadruple per span
//	response       generation, then disjoint contains contained overlap
//	               per estimate, in request order
//
// Raw sums are integers that merge by addition, so a fixed-width frame
// carries them exactly and costs no parsing beyond a length check.
const (
	frameType     = "application/octet-stream"
	wordBytes     = 8
	gridWords     = 6
	spanWords     = 4
	estimateWords = 4
	// maxFrameBytes caps a request frame, like the body cap of every
	// other POST endpoint.
	maxFrameBytes = 8 << 20
)

func appendWord(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func word(b []byte, k int) int64 {
	return int64(binary.LittleEndian.Uint64(b[k*wordBytes:]))
}

// wordInt reads word k as an int, failing on values an int cannot hold
// (possible only where int is 32 bits wide).
func wordInt(b []byte, k int) (int, error) {
	v := word(b, k)
	if int64(int(v)) != v {
		return 0, fmt.Errorf("frame word %d = %d overflows int", k, v)
	}
	return int(v), nil
}

func encodeGridRequest(region grid.Span, cols, rows int) []byte {
	b := make([]byte, 0, gridWords*wordBytes)
	for _, v := range [gridWords]int{region.I1, region.J1, region.I2, region.J2, cols, rows} {
		b = appendWord(b, int64(v))
	}
	return b
}

func decodeGridRequest(b []byte) (region grid.Span, cols, rows int, err error) {
	if len(b) != gridWords*wordBytes {
		return grid.Span{}, 0, 0, fmt.Errorf("grid frame is %d bytes, want %d", len(b), gridWords*wordBytes)
	}
	var v [gridWords]int
	for k := range v {
		if v[k], err = wordInt(b, k); err != nil {
			return grid.Span{}, 0, 0, err
		}
	}
	return grid.Span{I1: v[0], J1: v[1], I2: v[2], J2: v[3]}, v[4], v[5], nil
}

func encodeSpansRequest(spans []grid.Span) []byte {
	b := make([]byte, 0, len(spans)*spanWords*wordBytes)
	for _, s := range spans {
		b = appendWord(b, int64(s.I1))
		b = appendWord(b, int64(s.J1))
		b = appendWord(b, int64(s.I2))
		b = appendWord(b, int64(s.J2))
	}
	return b
}

// decodeSpansRequest decodes a spans frame, rejecting a length that is
// not a whole number of spans and a batch outside (0, maxSpanBatch].
func decodeSpansRequest(b []byte) ([]grid.Span, error) {
	const size = spanWords * wordBytes
	if len(b)%size != 0 {
		return nil, fmt.Errorf("spans frame is %d bytes, not a whole number of %d-byte spans", len(b), size)
	}
	n := len(b) / size
	if n == 0 || n > maxSpanBatch {
		return nil, fmt.Errorf("span batch size %d outside (0, %d]", n, maxSpanBatch)
	}
	spans := make([]grid.Span, n)
	for i := range spans {
		var v [spanWords]int
		for k := range v {
			var err error
			if v[k], err = wordInt(b, i*spanWords+k); err != nil {
				return nil, err
			}
		}
		spans[i] = grid.Span{I1: v[0], J1: v[1], I2: v[2], J2: v[3]}
	}
	return spans, nil
}

// estimateFrameBytes is the response frame size for n estimates.
func estimateFrameBytes(n int) int { return (1 + n*estimateWords) * wordBytes }

func encodeEstimates(gen uint64, ests []core.Estimate) []byte {
	b := make([]byte, 0, estimateFrameBytes(len(ests)))
	b = appendWord(b, int64(gen))
	for _, e := range ests {
		b = appendWord(b, e.Disjoint)
		b = appendWord(b, e.Contains)
		b = appendWord(b, e.Contained)
		b = appendWord(b, e.Overlap)
	}
	return b
}

// decodeEstimates decodes a response frame that must carry exactly want
// estimates.
func decodeEstimates(b []byte, want int) (gen uint64, ests []core.Estimate, err error) {
	if len(b) != estimateFrameBytes(want) {
		return 0, nil, fmt.Errorf("estimate frame is %d bytes, want %d for %d estimates",
			len(b), estimateFrameBytes(want), want)
	}
	gen = uint64(word(b, 0))
	ests = make([]core.Estimate, want)
	for i := range ests {
		k := 1 + i*estimateWords
		ests[i] = core.Estimate{
			Disjoint:  word(b, k),
			Contains:  word(b, k+1),
			Contained: word(b, k+2),
			Overlap:   word(b, k+3),
		}
	}
	return gen, ests, nil
}

// errFrameType is a request whose body is not a frame.
var errFrameType = errors.New("shard: request body must be " + frameType)

// readFrame reads a node request's frame into a buffer sized from its
// Content-Length, which must be present and at most maxFrameBytes. A
// request of any other content type is errFrameType, so a coordinator
// speaking an older wire format fails clearly instead of being misparsed.
func readFrame(r *http.Request) ([]byte, error) {
	if r.Header.Get("Content-Type") != frameType {
		return nil, errFrameType
	}
	if r.ContentLength < 0 || r.ContentLength > maxFrameBytes {
		return nil, fmt.Errorf("frame length %d outside [0, %d]", r.ContentLength, maxFrameBytes)
	}
	b := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(r.Body, b); err != nil {
		return nil, fmt.Errorf("reading frame: %w", err)
	}
	return b, nil
}

// writeFrame sends a complete response frame.
func writeFrame(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", frameType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(b); err != nil {
		logf("shard: writing frame: %v", err)
	}
}
