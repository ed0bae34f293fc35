// Command geobench is the seeded end-to-end benchmark of geobrowsed. One
// run builds cmd/geobrowsed from the checkout, generates the workload's
// dataset from the seed, starts the workload's server topology on
// loopback, drives it for a timed window from this one process over at
// most two connections, checks the answers against in-process reference
// estimators, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
//
// Usage (from the repository root; run.sh builds and runs this program):
//
//	bash geobench/run.sh --workload browse-hot --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and a baseline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"spatialhist/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	smoke    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("geobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload to run: browse-hot, browse-cold or shard-ingest")
	fs.Int64Var(&c.seed, "seed", 1, "seed of the dataset and of every request stream")
	fs.IntVar(&c.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced in-process replay and prints per-layer metrics")
	fs.StringVar(&c.root, "root", ".", "root of the checkout to build and measure")
	fs.BoolVar(&c.smoke, "smoke", false, "scale the workload down to a seconds-long check of the harness")
	refAddr := fs.String("reference-server", "", "serve the host-speed reference on this address instead (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *refAddr != "" {
		return serveReference(*refAddr)
	}
	if c.seconds < 1 || (trace != 0 && trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "geobench: want --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	c.trace = trace == 1
	w, err := findWorkload(c.workload)
	if err != nil {
		fmt.Fprintf(stderr, "geobench: %v\n", err)
		return 2
	}
	if c.smoke {
		w.smoke()
	}
	res, err := bench(c, w, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "geobench: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.print(stdout, c.trace); err != nil {
		fmt.Fprintf(stderr, "geobench: %v\n", err)
		return 1
	}
	if !res.correct {
		fmt.Fprintf(stderr, "geobench: %s: run failed: %s\n", w.name, strings.Join(res.problems, "; "))
		return 1
	}
	return 0
}

// smoke shrinks a workload to a seconds-long check that the harness works
// end to end; its numbers mean nothing.
func (w *workload) smoke() {
	w.n /= 20
	w.setups = 1
	w.warmup = 200 * time.Millisecond
	w.verifyReqs = min(w.verifyReqs, 30)
	w.replayReqs = min(w.replayReqs, 60)
}

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or ratio base
}

// result is everything one run prints.
type result struct {
	workload  string
	seed      int64
	hash      uint64
	correct   bool
	attempted int
	failed    int
	problems  []string
	e2e       []metric // measured with tracing off
	extra     []metric // end-to-end figures reported but not gated
	layers    []metric // traced runs only
}

func (r *result) print(w io.Writer, trace bool) error {
	fmt.Fprintf(w, "workload %s  seed %d  request-stream hash %016x\n", r.workload, r.seed, r.hash)
	section := func(title string, ms []metric) {
		fmt.Fprintf(w, "%s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-40s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	section("end-to-end (tracing off)", r.e2e)
	section("end-to-end, reported only", r.extra)
	out := r.e2e
	if trace {
		section("per-layer", r.layers)
		out = r.layers
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", r.attempted, r.failed, r.correct)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jm, len(out))
	for _, m := range out {
		metrics[m.name] = jm{Value: finite(m.value), Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// finite maps the +Inf of a percentile that landed on a failed request to
// the largest float64, since JSON has no infinity; such a run is never
// correct.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v) || math.IsInf(v, -1):
		return -1
	}
	return v
}

// bench runs one workload once.
func bench(c config, w *workload, stderr io.Writer) (*result, error) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "geobench: %s: "+format+"\n", append([]any{w.name}, args...)...)
	}
	buildDir := filepath.Join(c.root, ".bench_build")
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "geobrowsed"))
	if err != nil {
		return nil, err
	}
	if err := buildServer(c.root, bin); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := makeInputs(w, c.seed, dir)
	if err != nil {
		return nil, err
	}
	batch := 0
	if w.ingestRate > 0 {
		batch = w.ingestBatch
	}
	res := &result{workload: w.name, seed: c.seed,
		hash: streamHash(w.trace, in.grid, c.seed, w.sessions, batch, 256, verifyList(w, in.grid, c.seed))}

	ctl := &http.Client{Timeout: 30 * time.Second}
	ref, err := startReference(dir, ctl)
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	su, topo, m, err := setUpAndMeasure(c, w, in, bin, ref, ctl)
	if topo != nil {
		defer topo.stop()
	}
	if err != nil {
		return nil, err
	}
	ref.stop()
	su.host, m.host = hostSpeed(w.refBaseline, su.refs), hostSpeed(w.refBaseline, m.refs)
	logf("set up in %.3fs (median of %d); reference during the set-ups: %v", median(su.secs), len(su.secs), su.host)
	logf("reference during the timed window: %v", m.host)
	ld := m.load
	problems := append([]string(nil), ld.failures...)

	v, err := verifyRun(c, w, in, topo, ctl, ld)
	if err != nil {
		return nil, err
	}
	problems = append(problems, v.problems...)
	logf("verified %d requests: %d mismatches, %d failed", v.attempted, v.mismatches, v.failed)

	all := ld.window(time.Time{}, time.Now())
	res.attempted = all.attempted + v.attempted
	res.failed = all.failed + v.failed + v.mismatches
	ws := ld.window(m.from, m.to)
	res.e2e, res.extra = endToEnd(w, ws, m, su, v.rssTotal, res.failed, res.attempted)

	if c.trace {
		reqs := replayList(w, in.grid, c.seed)
		rp, err := replay(v.ref.zoom, in.grid, reqs)
		if err != nil {
			return nil, err
		}
		if err := compareTiers(v.ref.base, in.grid, reqs, rp); err != nil {
			return nil, err
		}
		if rp.tierMismatch > 0 {
			res.failed += rp.tierMismatch
			problems = append(problems, fmt.Sprintf("%d browse maps differ between the full and packed tiers", rp.tierMismatch))
		}
		spanFile := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, c.seed))
		if err := writeSpans(spanFile, rp.spans); err != nil {
			return nil, err
		}
		logf("traced replay of %d requests: %d spans in %s", len(reqs), len(rp.spans), spanFile)
		res.layers = perLayer(w, ws, m, v.rss, v.ref, rp, res.extra)
	}
	res.problems = problems
	res.correct = res.failed == 0 && len(problems) == 0
	return res, nil
}

// verified is the outcome of a run's verification pass.
type verified struct {
	attempted, failed int // requests of the pass
	mismatches        int // bodies that differ from the reference
	problems          []string
	rss               map[string]float64 // peak RSS by server role, MB
	rssTotal          float64
	ref               *reference // the static estimators, when built
}

// verifyRun sends the seeded verification list, records every server's
// peak RSS, stops the servers and checks each body against an in-process
// reference. For shard-ingest it first publishes every shard's pending
// mutations with a last acknowledged batch holding one rect in each band.
// The static reference is built when the workload or tracing needs it.
func verifyRun(c config, w *workload, in *inputs, topo *topology, ctl *http.Client, ld *load) (*verified, error) {
	v := &verified{rss: map[string]float64{}}
	reqs := verifyList(w, in.grid, c.seed)
	if w.shards > 0 {
		last := ingestRequest(bandRects(in, w.shards), true)
		v.attempted++
		if _, err := do(ctl, topo.front.base, last); err != nil {
			v.failed++
			v.problems = append(v.problems, "flush: "+err.Error())
		} else {
			ld.acked = append(ld.acked, last.rects...)
		}
	}
	bodies, failures := fetchAll(ctl, topo.front.base, reqs)
	v.attempted += len(reqs)
	v.failed += len(failures)
	v.problems = append(v.problems, failures...)
	for _, s := range topo.all {
		b, err := procPeakRSS(s.pid())
		if err != nil {
			return nil, err
		}
		v.rss[s.role] += float64(b) / 1e6
		v.rssTotal += float64(b) / 1e6
	}
	topo.stop()

	var want core.Estimator
	if w.shards > 0 {
		est, closeRef, err := liveReference(in, ld.acked)
		if err != nil {
			return nil, err
		}
		defer closeRef()
		want = est
	}
	if w.shards == 0 || c.trace {
		ref, err := buildReference(in, c.trace)
		if err != nil {
			return nil, err
		}
		v.ref = ref
		if want == nil {
			want = ref.base
		}
	}
	var notes []string
	v.mismatches, notes = compareAll(want, in.grid, reqs, bodies)
	v.problems = append(v.problems, notes...)
	return v, nil
}

// bandRects returns one single-cell rect in the first column of each of
// n column bands, so a batch of them reaches every shard.
func bandRects(in *inputs, n int) [][4]float64 {
	var out [][4]float64
	for i := 0; i < n; i++ {
		col := i * in.grid.NX() / n
		r := in.grid.CellRect(col, 0)
		out = append(out, [4]float64{r.XMin, r.YMin, r.XMax, r.YMax})
	}
	return out
}

// measured is the timed window of one run.
type measured struct {
	load     *load
	from, to time.Time                // on the load's clock, which stops while paused
	cpu      map[string]time.Duration // server CPU used in the window, by role
	metrics  delta                    // /metrics of every server, before and after (traced runs)
	refs     []refRun                 // reference timings, before each block and after the last
	host     hostRef                  // from refs
}

// refBlocks is how many blocks of load the timed window is cut into; the
// host-speed reference is timed before, between and after them.
const refBlocks = 8

// setUps are a run's set-ups, each followed by a timing of the host-speed
// reference.
type setUps struct {
	secs []float64 // exec until every server answers /healthz 200
	refs []refRun
	host hostRef // from refs
}

// setUpAndMeasure sets the workload's topology up w.setups times, timing
// the reference server at ref after each, keeps the last one up and
// measures its timed window. The load client's settings hold throughout:
// one P and rare collections keep its threads from competing with the
// servers' for the cores, which otherwise shows up as run-to-run noise in
// the tail latencies. The topology is returned whenever it is up, also
// with an error.
func setUpAndMeasure(c config, w *workload, in *inputs, bin string, ref *server, ctl *http.Client) (*setUps, *topology, *measured, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	refClient := newLoadClient(2)
	defer refClient.CloseIdleConnections()
	su := &setUps{}
	var topo *topology
	for k := 0; k < w.setups; k++ {
		t, d, err := startTopology(w, bin, in, ctl)
		if err != nil {
			return nil, nil, nil, err
		}
		su.secs = append(su.secs, d.Seconds())
		if k < w.setups-1 {
			t.stop()
		} else {
			topo = t
		}
		r, err := timeReference(refClient, ref, w.refTiles)
		if err != nil {
			return nil, topo, nil, err
		}
		su.refs = append(su.refs, r)
	}
	m, err := measure(c, w, in, topo, ref, refClient, ctl)
	return su, topo, m, err
}

// measure drives the load through warm-up and the timed window. The
// window is refBlocks equal blocks of load; before the first block and
// after every block the load pauses, with no request in flight, while
// the reference server at ref is timed over refClient. Each server's CPU
// is sampled at the edges of every block and, when tracing, its /metrics
// at the edges of the window.
func measure(c config, w *workload, in *inputs, topo *topology, ref *server, refClient, ctl *http.Client) (*measured, error) {
	clk := &loadClock{}
	stopLoad := driveLoad(w, in, c.seed, newLoadClient(2), topo.front.base, clk)
	m := &measured{cpu: map[string]time.Duration{}}
	sampleCPU := func(sign time.Duration) error {
		for _, s := range topo.all {
			cpu, err := procCPU(s.pid())
			if err != nil {
				return err
			}
			m.cpu[s.role] += sign * cpu
		}
		return nil
	}
	scrapeAll := func() (scrapes []scrape, err error) {
		if !c.trace {
			return nil, nil
		}
		for _, s := range topo.all {
			sc, err := scrapeMetrics(ctl, s.base)
			if err != nil {
				return nil, err
			}
			scrapes = append(scrapes, sc)
		}
		return scrapes, nil
	}
	var errs []error
	time.Sleep(w.warmup)
	length := time.Duration(c.seconds) * time.Second / refBlocks
	for b := 0; b <= refBlocks && len(errs) == 0; b++ {
		if b > 0 {
			clk.SleepUntil(m.from.Add(time.Duration(b) * length))
		}
		clk.pause()
		if b > 0 {
			errs = append(errs, sampleCPU(1))
		}
		if b == refBlocks {
			m.to = clk.Now()
			after, err := scrapeAll()
			m.metrics.after = after
			errs = append(errs, err)
		}
		r, err := timeReference(refClient, ref, w.refTiles)
		m.refs = append(m.refs, r)
		errs = append(errs, err)
		if b == 0 {
			before, err := scrapeAll()
			m.metrics.before = before
			m.from = clk.Now()
			errs = append(errs, err)
		}
		if b < refBlocks {
			errs = append(errs, sampleCPU(-1))
		}
		clk.resume()
		errs = slices.DeleteFunc(errs, func(err error) bool { return err == nil })
	}
	m.load = stopLoad()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return m, nil
}

func scrapeMetrics(ctl *http.Client, base string) (scrape, error) {
	resp, err := ctl.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parsePromText(resp.Body)
}
