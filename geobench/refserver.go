package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// The host-speed reference. The benchmark runs on a few virtual cores of
// a shared machine whose speed changes by 2x and more over minutes, for
// request handling of every kind alike (a static browse-hot run has read
// 7k and 18k req/s, at 150 and 61 µs of server CPU per request). A fixed
// reference server, built from this file alone and so the same on every
// commit, is timed under the load client several times in each run while
// geobrowsed is idle; the ratio of its rate to its rate on the baseline
// host scales the end-to-end figures to that host. A change to
// geobrowsed moves its own figures and not the reference's; a change of
// host speed moves both.

// refTile is one tile of a reference response, shaped like a tile of
// geobrowse's JSON.
type refTile struct {
	Col   int     `json:"col"`
	Row   int     `json:"row"`
	Count float64 `json:"count"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

// refTable is the reference handler's lookup table: 1 MiB, so each tile
// mixes arithmetic with cache-resident loads as a histogram sweep does.
var refTable = func() []uint32 {
	t := make([]uint32, 1<<18)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// refHandler answers /ref?tiles=T&k=K with T tiles computed from the
// table, marshaled as JSON.
func refHandler(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n, err1 := strconv.Atoi(q.Get("tiles"))
	k, err2 := strconv.Atoi(q.Get("k"))
	if err1 != nil || err2 != nil || n < 1 || n > 1<<16 {
		http.Error(w, "want tiles in [1, 65536] and k", http.StatusBadRequest)
		return
	}
	mask := uint32(len(refTable) - 1)
	x := uint32(k)*2654435761 + 1
	tiles := make([]refTile, n)
	for i := range tiles {
		var acc uint32
		for s := 0; s < 8; s++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			acc += refTable[x&mask] >> 8
		}
		c := float64(acc) / 1e6
		tiles[i] = refTile{Col: i % 90, Row: i / 90, Count: c, Lo: math.Floor(c), Hi: math.Ceil(c)}
	}
	body, err := json.Marshal(tiles)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// serveReference is the reference server's process: it serves /ref and
// /healthz on addr until killed.
func serveReference(addr string) int {
	mux := http.NewServeMux()
	mux.HandleFunc("/ref", refHandler)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "ok\n") })
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geobench reference server: %v\n", err)
		return 1
	}
	err = http.Serve(l, mux)
	fmt.Fprintf(os.Stderr, "geobench reference server: %v\n", err)
	return 1
}

// refRun is one timing of the reference server: its rate, its median
// latency and its CPU per request, the counterparts of the three kinds of
// end-to-end figure.
type refRun struct {
	rps   float64 // completed requests per second
	p50ms float64 // median client latency
	cpuUs float64 // the reference server's CPU per completed request
}

// hostRef is how much slower than the baseline host the host was during
// one phase of a run, by each statistic of the reference: the geometric
// mean over the phase's timings against the baseline's value. The
// factors exceed 1 on a slower host. They differ: when the host gives
// the benchmark less of its cores the rate falls further than the
// latency or the CPU per request rises.
type hostRef struct {
	runs               []refRun
	mean               refRun
	rate, latency, cpu float64
}

func hostSpeed(base refRun, runs []refRun) hostRef {
	var l refRun
	for _, r := range runs {
		l.rps += math.Log(r.rps)
		l.p50ms += math.Log(r.p50ms)
		l.cpuUs += math.Log(r.cpuUs)
	}
	n := float64(len(runs))
	m := refRun{math.Exp(l.rps / n), math.Exp(l.p50ms / n), math.Exp(l.cpuUs / n)}
	return hostRef{runs: runs, mean: m,
		rate: base.rps / m.rps, latency: m.p50ms / base.p50ms, cpu: m.cpuUs / base.cpuUs}
}

func (h hostRef) String() string {
	return fmt.Sprintf("%d timings, %.0f req/s, p50 %.4g ms, %.4g µs CPU per request: slower than the baseline host by %.3f in rate, %.3f in latency, %.3f in CPU",
		len(h.runs), h.mean.rps, h.mean.p50ms, h.mean.cpuUs, h.rate, h.latency, h.cpu)
}

// Each timing of the reference: warm-up, then the timed part.
const (
	refWarmup = 100 * time.Millisecond
	refWindow = 500 * time.Millisecond
)

// startReference starts the reference server as a separate process: this
// program, re-executed.
func startReference(dir string, ctl *http.Client) (*server, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s, err := startProcess(self, "reference", addr, filepath.Join(dir, "reference.log"), "--reference-server", addr)
	if err != nil {
		return nil, err
	}
	if err := s.waitHealthy(ctl, 30*time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// timeReference drives the reference server s as the load drives
// geobrowsed, from two closed-loop sessions over c, asking for
// tiles-tile responses, and returns its statistics after a warm-up.
func timeReference(c *http.Client, s *server, tiles int) (refRun, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		lat      latencies
		total    int
	)
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return refRun{}, err
	}
	start := time.Now()
	from, to := start.Add(refWarmup), start.Add(refWarmup+refWindow)
	for sess := 0; sess < 2; sess++ {
		wg.Add(1)
		go func(sess int) {
			defer wg.Done()
			for k := sess; ; k += 2 {
				sent := time.Now()
				if !sent.Before(to) {
					return
				}
				err := send(c, s.base, request{path: fmt.Sprintf("/ref?tiles=%d&k=%d", tiles, k)}, io.Discard)
				fin := time.Now()
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					total++
					if !sent.Before(from) {
						lat.add(fin.Sub(sent))
					}
				}
				mu.Unlock()
			}
		}(sess)
	}
	wg.Wait()
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return refRun{}, err
	}
	if firstErr != nil {
		return refRun{}, fmt.Errorf("reference server: %w", firstErr)
	}
	if len(lat.ms) == 0 {
		return refRun{}, fmt.Errorf("reference server completed no request in %v", refWindow)
	}
	return refRun{
		rps:   float64(len(lat.ms)) / refWindow.Seconds(),
		p50ms: lat.percentile(0.5),
		cpuUs: float64((cpu1 - cpu0).Microseconds()) / float64(total),
	}, nil
}
