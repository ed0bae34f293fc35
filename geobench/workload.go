package main

import (
	"fmt"
	"path/filepath"
	"time"

	"spatialhist/internal/dataset"
	"spatialhist/internal/grid"
	"spatialhist/internal/shard"
)

// workload is one topology, dataset and traffic mix. README.md says why
// each exists.
type workload struct {
	name    string
	dataset string // dataset generator name
	n       int    // objects
	gw, gh  int    // grid cells

	// shards is 0 for one static server over the whole dataset, or the
	// number of live shard nodes behind a remote coordinator, each seeded
	// with its own column band.
	shards     int
	serverArgs []string // extra geobrowsed flags of the static server

	sessions int // closed-loop browse sessions
	trace    traceOpts

	ingestRate  float64 // open-loop ingest batches per second; 0 = none
	ingestBatch int     // rects per ingest batch

	// refTiles is the number of tiles in each response of the host-speed
	// reference, sized like the workload's browse maps; refBaseline is
	// what the reference measures on the baseline host.
	refTiles    int
	refBaseline refRun

	setups     int // set-ups per run; setup_s is their median
	warmup     time.Duration
	verifyReqs int // browse-path requests of the verification pass
	replayReqs int // recorded requests replayed in-process by a traced run
}

// The host-speed reference on the baseline host (see README.md), with
// 96-tile and 4050-tile responses.
var (
	refHot  = refRun{rps: 11000, p50ms: 0.165, cpuUs: 100}
	refCold = refRun{rps: 700, p50ms: 2.7, cpuUs: 2400}
)

// areas are the M-EulerApprox area thresholds geobrowsed uses by default.
var areas = []float64{1, 9, 100}

func workloads() []*workload {
	return []*workload{
		{
			name: "browse-hot", dataset: "adl", n: 200_000, gw: 360, gh: 180,
			serverArgs: []string{"-max-inflight", "32", "-shed-after", "250ms"},
			sessions:   2,
			trace:      traceOpts{hotspots: 16, zipfS: 1.4, maxCols: 12, maxRows: 8, flashEvery: 400, flashLen: 40},
			refTiles:   96, refBaseline: refHot,
			setups: 7, warmup: time.Second, verifyReqs: 400, replayReqs: 4000,
		},
		{
			name: "browse-cold", dataset: "sz_skew", n: 500_000, gw: 1440, gh: 720,
			sessions: 2,
			trace:    traceOpts{hotspots: 512, zipfS: 1.01, maxCols: 90, maxRows: 45},
			refTiles: 4050, refBaseline: refCold,
			setups: 7, warmup: time.Second, verifyReqs: 120, replayReqs: 400,
		},
		{
			name: "shard-ingest", dataset: "adl", n: 200_000, gw: 360, gh: 180,
			shards:     2,
			sessions:   1,
			trace:      traceOpts{hotspots: 16, zipfS: 1.4, maxCols: 12, maxRows: 8, flashEvery: 400, flashLen: 40},
			ingestRate: 100, ingestBatch: 16,
			refTiles: 96, refBaseline: refHot,
			setups: 7, warmup: time.Second, verifyReqs: 300, replayReqs: 2000,
		},
	}
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// inputs are the seeded files a run hands to the servers.
type inputs struct {
	dir   string
	data  *dataset.Dataset
	grid  *grid.Grid
	files []string // one dataset file per data-holding server
}

// makeInputs generates the workload's dataset from seed and writes it as
// geobrowsed -file inputs under dir: whole for a static server, split by
// the coordinator's column-band routing rule for shard nodes.
func makeInputs(w *workload, seed int64, dir string) (*inputs, error) {
	d, err := dataset.Generate(w.dataset, w.n, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{dir: dir, data: d, grid: grid.New(d.Extent, w.gw, w.gh)}
	parts := []*dataset.Dataset{d}
	if w.shards > 0 {
		p, err := shard.NewPartition(in.grid, w.shards)
		if err != nil {
			return nil, err
		}
		parts = parts[:0]
		for i, rects := range p.RouteRects(d.Rects) {
			parts = append(parts, &dataset.Dataset{Name: fmt.Sprintf("%s.band%d", d.Name, i), Extent: d.Extent, Rects: rects})
		}
	}
	for i, part := range parts {
		f := filepath.Join(dir, fmt.Sprintf("data%d.bin", i))
		if err := part.Save(f); err != nil {
			return nil, err
		}
		in.files = append(in.files, f)
	}
	return in, nil
}
