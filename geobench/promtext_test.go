package main

import (
	"strings"
	"testing"
)

const exposition = `# HELP geobrowse_http_request_seconds API request latency in seconds.
# TYPE geobrowse_http_request_seconds histogram
geobrowse_http_request_seconds_bucket{endpoint="/api/browse",le="0.001"} 3
geobrowse_http_request_seconds_bucket{endpoint="/api/browse",le="+Inf"} 4
geobrowse_http_request_seconds_sum{endpoint="/api/browse"} 0.0125
geobrowse_http_request_seconds_count{endpoint="/api/browse"} 4
geobrowse_http_request_seconds_sum{endpoint="/api/drill"} 1.5
geobrowse_http_request_seconds_count{endpoint="/api/drill"} 2
# TYPE geobrowse_cache_hits_total counter
geobrowse_cache_hits_total 7
core_pyramid_level_hits_total{level="0"} 10
core_pyramid_level_hits_total{level="1"} 5
odd_total{path="a \"quoted\" \\ value",x="1"} 2
`

func mustParse(t *testing.T, text string) scrape {
	t.Helper()
	sc, err := parsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestParsePromText(t *testing.T) {
	sc := mustParse(t, exposition)
	if len(sc) != 10 {
		t.Fatalf("parsed %d series, want 10", len(sc))
	}
	for _, c := range []struct {
		name  string
		match []string
		want  float64
	}{
		{"geobrowse_http_request_seconds_sum", []string{"endpoint", "/api/browse"}, 0.0125},
		{"geobrowse_http_request_seconds_count", nil, 6},
		{"geobrowse_cache_hits_total", nil, 7},
		{"core_pyramid_level_hits_total", []string{"level", "1"}, 5},
		{"core_pyramid_level_hits_total", nil, 15},
		{"odd_total", []string{"path", `a "quoted" \ value`}, 2},
		{"missing_total", nil, 0},
	} {
		if got := sc.sum(c.name, c.match...); got != c.want {
			t.Errorf("sum(%s, %v) = %g, want %g", c.name, c.match, got, c.want)
		}
	}
}

func TestParsePromTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"novalue\n",
		"x{a=\"1\" 3\n",
		"x{a=\"unterminated} 3\n",
		"x 1.2.3\n",
	} {
		if _, err := parsePromText(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
}

func TestDeltaAcrossProcesses(t *testing.T) {
	before := []scrape{
		mustParse(t, "shard_fanout_seconds_sum 1\nshard_fanout_seconds_count 10\n"),
		mustParse(t, "live_rebuild_seconds_count 2\n"),
	}
	after := []scrape{
		mustParse(t, "shard_fanout_seconds_sum 1.5\nshard_fanout_seconds_count 30\n"),
		// A series first registered inside the window counts from zero.
		mustParse(t, "live_rebuild_seconds_count 5\nlive_rebuild_full_total 1\n"),
	}
	d := delta{before: before, after: after}
	for name, want := range map[string]float64{
		"shard_fanout_seconds_sum":   0.5,
		"shard_fanout_seconds_count": 20,
		"live_rebuild_seconds_count": 3,
		"live_rebuild_full_total":    1,
	} {
		if got := d.sum(name); got != want {
			t.Errorf("delta %s = %g, want %g", name, got, want)
		}
	}
}
