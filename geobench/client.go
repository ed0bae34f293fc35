package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// newLoadClient returns the one HTTP client that carries a run's load: at
// most conns connections to the front server.
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// outcome is one request as the client saw it.
type outcome struct {
	endpoint string
	at       time.Time // send time (closed loop) or due time (open loop)
	sent     time.Time
	done     time.Time
	ok       bool // 2xx with its body read
}

// do sends one request and returns the whole response body. A transport
// error or a non-2xx status is a failed request.
func do(c *http.Client, base string, r request) ([]byte, error) {
	var buf bytes.Buffer
	err := send(c, base, r, &buf)
	return buf.Bytes(), err
}

// send sends one request and copies the response body to dst; load
// traffic discards it, so the client allocates little per request.
func send(c *http.Client, base string, r request, dst io.Writer) error {
	method, body := http.MethodGet, io.Reader(nil)
	if r.body != nil {
		method, body = http.MethodPost, bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(method, base+r.path, body)
	if err != nil {
		return err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, r.path, resp.Status, bytes.TrimSpace(msg))
	}
	_, err = io.Copy(dst, resp.Body)
	return err
}

// clock is the time source of the open-loop generator; tests replace it.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

// loadClock is the clock of a run's traffic. It stands still while the
// load is paused, so time spent paused (timing the host-speed reference)
// is in no request's latency, no open-loop lateness and no window's
// length. Every request is sent under gate's read lock; pause takes the
// write lock, so it waits for the requests in flight and holds back new
// ones.
type loadClock struct {
	gate       sync.RWMutex
	mu         sync.Mutex // guards paused and pauseStart
	paused     time.Duration
	pauseStart time.Time // zero while running
}

func (c *loadClock) Now() time.Time {
	now := time.Now()
	c.mu.Lock()
	p := c.paused
	if !c.pauseStart.IsZero() {
		p += now.Sub(c.pauseStart)
	}
	c.mu.Unlock()
	return now.Add(-p)
}

func (c *loadClock) SleepUntil(t time.Time) {
	for d := t.Sub(c.Now()); d > 0; d = t.Sub(c.Now()) {
		time.Sleep(d)
	}
}

// pause waits for the requests in flight, then stops the clock and holds
// back new requests until resume.
func (c *loadClock) pause() {
	c.gate.Lock()
	c.mu.Lock()
	c.pauseStart = time.Now()
	c.mu.Unlock()
}

func (c *loadClock) resume() {
	c.mu.Lock()
	c.paused += time.Since(c.pauseStart)
	c.pauseStart = time.Time{}
	c.mu.Unlock()
	c.gate.Unlock()
}

// runOpenLoop issues request k at its due time start+k*interval, or at
// once when the previous request ran past it, until stop reports true.
// Each outcome carries the due time, so latency counts the wait a stall
// imposes on later requests, and sent-due is how late the generator ran.
func runOpenLoop(c clock, start time.Time, interval time.Duration, stop func() bool,
	send func(k int) bool) []outcome {
	var out []outcome
	for k := 0; !stop(); k++ {
		due := start.Add(time.Duration(k) * interval)
		c.SleepUntil(due)
		if stop() {
			break
		}
		sent := c.Now()
		ok := send(k)
		out = append(out, outcome{endpoint: epIngest, at: due, sent: sent, done: c.Now(), ok: ok})
	}
	return out
}

// load is the traffic of one run: the closed-loop sessions and the
// optional open-loop ingest stream, from start to stop.
type load struct {
	outcomes [][]outcome // per session, then the ingest stream
	acked    [][4]float64
	failures []string // first few failure messages
}

// driveLoad starts the workload's traffic against base, timed by clk, and
// returns a function that stops it, waits for every in-flight request and
// returns what happened. Requests are never cut off: a request in flight
// at stop completes and is recorded. The load must not be paused at stop.
func driveLoad(w *workload, in *inputs, seed int64, c *http.Client, base string, clk *loadClock) func() *load {
	var stopped atomic.Bool
	stop := stopped.Load
	l := &load{outcomes: make([][]outcome, w.sessions+1)}
	var mu sync.Mutex // guards l.failures and l.acked
	noteFailure := func(err error) {
		mu.Lock()
		if len(l.failures) < 5 {
			l.failures = append(l.failures, err.Error())
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for s := 0; s < w.sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := newSession(w.trace, in.grid, seed, s)
			for !stop() {
				r := sess.next()
				clk.gate.RLock()
				sent := clk.Now()
				err := send(c, base, r, io.Discard)
				done := clk.Now()
				clk.gate.RUnlock()
				if err != nil {
					noteFailure(err)
				}
				l.outcomes[s] = append(l.outcomes[s], outcome{endpoint: r.endpoint, at: sent, sent: sent, done: done, ok: err == nil})
			}
		}(s)
	}
	if w.ingestRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream := newIngestStream(in.grid, seed, w.ingestBatch)
			interval := time.Duration(float64(time.Second) / w.ingestRate)
			l.outcomes[w.sessions] = runOpenLoop(clk, clk.Now(), interval, stop, func(int) bool {
				r := stream.next()
				clk.gate.RLock()
				err := send(c, base, r, io.Discard)
				clk.gate.RUnlock()
				if err != nil {
					noteFailure(err)
					return false
				}
				mu.Lock()
				l.acked = append(l.acked, r.rects...)
				mu.Unlock()
				return true
			})
		}()
	}
	return func() *load {
		stopped.Store(true)
		wg.Wait()
		return l
	}
}

// windowStats folds the outcomes that started in [from, to) into
// per-endpoint latencies and counts.
type windowStats struct {
	lat       map[string]*latencies // by endpoint, failures as +Inf
	late      latencies             // open-loop send lateness
	attempted int
	failed    int
	completed int // successful requests of every endpoint
	browsing  int // successful browse-path requests (browse, drill, query)
}

func (l *load) window(from, to time.Time) *windowStats {
	ws := &windowStats{lat: map[string]*latencies{}}
	for _, ep := range []string{epBrowse, epDrill, epQuery, epIngest} {
		ws.lat[ep] = &latencies{}
	}
	for _, outs := range l.outcomes {
		for _, o := range outs {
			if o.at.Before(from) || !o.at.Before(to) {
				continue
			}
			ws.attempted++
			if o.endpoint == epIngest {
				ws.late.add(o.sent.Sub(o.at))
			}
			if !o.ok {
				ws.failed++
				ws.lat[o.endpoint].fail()
				continue
			}
			ws.completed++
			if o.endpoint != epIngest {
				ws.browsing++
			}
			ws.lat[o.endpoint].add(o.done.Sub(o.at))
		}
	}
	return ws
}
