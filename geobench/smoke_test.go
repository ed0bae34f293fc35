package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the harness must honour.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// reportOnly are the end-to-end figures every run prints beside the gated
// ones.
var reportOnly = []string{"browse_p99_ms ", "drill_p99_ms ", "query_p99_ms ", "failed_frac ", "ingest_p50_ms ", "ingest_p99_ms "}

// TestSmoke runs every workload of BENCHMARK.json scaled down for one
// second, untraced and traced, and checks that the last line carries
// exactly the metrics BENCHMARK.json names, with their units, and that
// the run verified clean.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs geobrowsed")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := c.EndToEnd
			if trace == "1" {
				want = c.PerLayer
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1",
				"--trace", trace, "--root", "..", "--smoke"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range reportOnly {
				if !strings.Contains(stdout.String(), "  "+name) {
					t.Errorf("%s trace %s: report lacks %s", w.Name, trace, name)
				}
			}
		}
	}
}
