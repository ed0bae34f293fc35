package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the reference server, which the
// benchmark starts by re-executing its own binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "--reference-server" {
		os.Exit(serveReference(os.Args[2]))
	}
	os.Exit(m.Run())
}

func TestLoadClockStopsWhilePaused(t *testing.T) {
	var clk loadClock
	t0 := clk.Now()
	clk.pause()
	time.Sleep(30 * time.Millisecond)
	if d := clk.Now().Sub(t0); d > 20*time.Millisecond {
		t.Errorf("clock advanced %v while paused", d)
	}
	// A sleeper whose time falls due during the pause wakes only after it.
	woke := make(chan time.Duration)
	go func() {
		start := time.Now()
		clk.SleepUntil(t0.Add(5 * time.Millisecond))
		woke <- time.Since(start)
	}()
	time.Sleep(30 * time.Millisecond)
	clk.resume()
	if d := <-woke; d < 25*time.Millisecond {
		t.Errorf("sleeper woke after %v, during the pause", d)
	}
	// A reader holding the gate delays the next pause until it is done.
	clk.gate.RLock()
	paused := make(chan struct{})
	go func() {
		clk.pause()
		close(paused)
	}()
	select {
	case <-paused:
		t.Fatal("pause did not wait for the request in flight")
	case <-time.After(20 * time.Millisecond):
	}
	clk.gate.RUnlock()
	<-paused
	clk.resume()
}

func TestHostScaling(t *testing.T) {
	base := refRun{rps: 1000, p50ms: 1, cpuUs: 100}
	h := hostSpeed(base, []refRun{{500, 1, 100}, {2000, 4, 400}, {125, 2, 200}})
	if math.Abs(h.rate-2) > 1e-9 || math.Abs(h.latency-2) > 1e-9 || math.Abs(h.cpu-2) > 1e-9 {
		t.Errorf("slower by %g, %g, %g; want the geometric means, 2 each", h.rate, h.latency, h.cpu)
	}

	// Two seconds of load on a host that gives half the baseline's rate,
	// 1.25 times its latency and 1.6 times its CPU per request.
	from := time.Unix(1000, 0)
	var outs []outcome
	for i := 0; i < 200; i++ {
		at := from.Add(time.Duration(i) * 10 * time.Millisecond)
		outs = append(outs, outcome{endpoint: epBrowse, at: at, sent: at, done: at.Add(2 * time.Millisecond), ok: true})
	}
	m := &measured{from: from, to: from.Add(2 * time.Second),
		cpu:  map[string]time.Duration{"coordinator": 50 * time.Millisecond, "shard": 150 * time.Millisecond},
		host: hostSpeed(base, []refRun{{500, 1.25, 160}})}
	ws := (&load{outcomes: [][]outcome{outs}}).window(m.from, m.to)
	su := &setUps{secs: []float64{0.2, 0.4, 0.3}, host: hostSpeed(base, []refRun{{250, 9, 900}})}
	e2e, extra := endToEnd(&workload{}, ws, m, su, 10, 0, 200)
	want := map[string]float64{
		"throughput_rps":        200, // 100/s at half the rate
		"browse_p50_ms":         1.6, // 2 ms at 1.25 times the latency
		"browse_p99_ms":         1.6,
		"server_cpu_us_per_req": 625,   // 1000 us at 1.6 times the CPU
		"setup_s":               0.075, // the median set-up, 0.3 s, at a quarter of the rate
	}
	for _, m := range append(e2e, extra...) {
		if v, ok := want[m.name]; ok && math.Abs(m.value-v) > 1e-9*v {
			t.Errorf("%s = %g, want %g", m.name, m.value, v)
		}
		delete(want, m.name)
	}
	if len(want) > 0 {
		t.Errorf("missing metrics %v", want)
	}
}

func TestReferenceServer(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/ref", refHandler)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := newLoadClient(2)
	body, err := do(c, srv.URL, request{path: "/ref?tiles=96&k=3"})
	if err != nil {
		t.Fatal(err)
	}
	again, _ := do(c, srv.URL, request{path: "/ref?tiles=96&k=3"})
	if string(body) != string(again) || len(body) < 96*40 {
		t.Errorf("reference responses differ or are short: %d and %d bytes", len(body), len(again))
	}
	if _, err := do(c, srv.URL, request{path: "/ref?tiles=0&k=3"}); err == nil {
		t.Error("tiles=0 accepted")
	}
	self := &server{base: srv.URL, cmd: &exec.Cmd{Process: &os.Process{Pid: os.Getpid()}}}
	if r, err := timeReference(c, self, 96); err != nil || r.rps <= 0 || r.p50ms <= 0 || r.cpuUs <= 0 {
		t.Errorf("timeReference = %+v, %v", r, err)
	}
}
