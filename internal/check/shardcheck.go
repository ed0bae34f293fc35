package check

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/shard"
	"spatialhist/internal/telemetry"
)

// openMemStore opens an in-memory live store for a shard-oracle round.
func openMemStore(g *grid.Grid, algo live.Algo, areas []float64, rebuildEvery int) (*live.Store, error) {
	return live.Open(live.Config{
		Grid: g, Algo: algo, Areas: areas,
		RebuildEvery: rebuildEvery,
		Telemetry:    telemetry.NewRegistry(),
	})
}

// shardOps flattens one generated mutation into coordinator ingest calls:
// the coordinator routes inserts and deletes; an update is a delete of the
// pre-image at its owner plus an insert of the image at its (possibly
// different) owner.
type flatOp struct {
	op byte
	r  geom.Rect
}

func shardOps(m gen.Mutation) []flatOp {
	switch m.Op {
	case gen.OpInsert:
		return []flatOp{{live.OpInsert, m.R}}
	case gen.OpDelete:
		return []flatOp{{live.OpDelete, m.R}}
	default:
		return []flatOp{{live.OpDelete, m.Old}, {live.OpInsert, m.R}}
	}
}

// wireNodes serves the shard-node endpoints of every round's stores from
// one loopback server, started on first use and kept for the life of the
// process, so a soak pays neither a listener nor fresh connections per
// round. Each mounted store answers under its own path prefix.
var wireNodes struct {
	once   sync.Once
	srv    *httptest.Server
	client *http.Client
	next   atomic.Int64
	nodes  sync.Map // prefix id -> http.Handler
}

// mountWireNode serves s through shard.NodeHandler on the loopback server
// and returns an HTTPHandle to it plus the function that unmounts it.
func mountWireNode(s *live.Store) (*shard.HTTPHandle, func()) {
	wireNodes.once.Do(func() {
		wireNodes.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
			h, ok := wireNodes.nodes.Load(id)
			if !ok {
				http.NotFound(w, r)
				return
			}
			h.(http.Handler).ServeHTTP(w, r)
		}))
		wireNodes.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	})
	id := strconv.FormatInt(wireNodes.next.Add(1), 10)
	wireNodes.nodes.Store(id, http.StripPrefix("/"+id, shard.NodeHandler(s, telemetry.NewRegistry())))
	h := &shard.HTTPHandle{Base: wireNodes.srv.URL + "/" + id, Client: wireNodes.client, Label: "wire" + id}
	return h, func() { wireNodes.nodes.Delete(id) }
}

// wireHandle is a shard leader whose estimates cross the coordinator-node
// frame hop (NodeHandler served on loopback, read through HTTPHandle);
// status, info and writes stay in-process.
type wireHandle struct {
	*shard.LocalHandle
	wire *shard.HTTPHandle
}

func (h wireHandle) EstimateGrid(region grid.Span, cols, rows int) ([]core.Estimate, error) {
	return h.wire.EstimateGrid(region, cols, rows)
}

func (h wireHandle) EstimateSpans(spans []grid.Span) ([]core.Estimate, error) {
	return h.wire.EstimateSpans(spans)
}

// shardedDiverges runs one sharded-vs-single round: the identical
// insert/delete stream flows through a coordinator over n column-band
// shards and through one unsharded store, with concurrent scatter-gather
// reads exercising the fan-out while the stream is in flight; the final
// merged tile maps and span batches must be bit-identical to the single
// store's raw estimates. Every read runs on two legs over the same shard
// stores: in-process handles, and the wire (wireHandle), so the answers
// are also checked after crossing the frame codec.
func shardedDiverges(g *grid.Grid, algo live.Algo, areas []float64, n int, muts []gen.Mutation, queries []grid.Span) (got, want string, bad bool) {
	single, err := openMemStore(g, algo, areas, 1)
	if err != nil {
		return "opening single store: " + err.Error(), "", true
	}
	defer single.Close()

	stores := make([]*live.Store, n)
	cfg := shard.Config{Name: "oracle", ProbeInterval: -1, Telemetry: telemetry.NewRegistry()}
	wireCfg := shard.Config{Name: "oracle-wire", ProbeInterval: -1, Telemetry: telemetry.NewRegistry()}
	for i := range stores {
		stores[i], err = openMemStore(g, algo, areas, 1)
		if err != nil {
			return fmt.Sprintf("opening shard %d: %v", i, err), "", true
		}
		defer stores[i].Close()
		local := &shard.LocalHandle{Store: stores[i], Label: fmt.Sprintf("s%d", i)}
		cfg.Shards = append(cfg.Shards, shard.Backends{Leader: local})
		wire, unmount := mountWireNode(stores[i])
		defer unmount()
		wireCfg.Shards = append(wireCfg.Shards, shard.Backends{Leader: wireHandle{local, wire}})
	}
	c, err := shard.NewCoordinator(cfg)
	if err != nil {
		return "coordinator: " + err.Error(), "", true
	}
	defer c.Close()
	cw, err := shard.NewCoordinator(wireCfg)
	if err != nil {
		return "wire coordinator: " + err.Error(), "", true
	}
	defer cw.Close()
	legs := []struct {
		name string
		c    *shard.Coordinator
	}{{"local", c}, {"wire", cw}}

	// Concurrent readers: merged answers while ingest is running cannot be
	// compared against the single store (snapshot timing differs), but
	// they must never error and never change length — the fan-out, retry
	// and merge machinery stays sound under write load.
	stop := make(chan struct{})
	var readerErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			leg := legs[k%len(legs)]
			ests, err := leg.c.EstimateGrid(full, 1, 1)
			if err != nil {
				readerErr.Store(fmt.Errorf("concurrent %s EstimateGrid: %w", leg.name, err))
				return
			}
			if len(ests) != 1 {
				readerErr.Store(fmt.Errorf("concurrent %s EstimateGrid returned %d estimates", leg.name, len(ests)))
				return
			}
		}
	}()

	var wantApplied, wantRejected, gotApplied, gotRejected int
	for i, m := range muts {
		for _, o := range shardOps(m) {
			ok, err := func() (bool, error) {
				if o.op == live.OpInsert {
					return single.Insert(o.r)
				}
				return single.Delete(o.r)
			}()
			if err != nil {
				close(stop)
				wg.Wait()
				return fmt.Sprintf("single store mutation %d: %v", i, err), "", true
			}
			if ok {
				wantApplied++
			} else {
				wantRejected++
			}
			a, rj, _, err := c.Ingest(o.op, []geom.Rect{o.r}, false)
			if err != nil {
				close(stop)
				wg.Wait()
				return fmt.Sprintf("coordinator ingest %d: %v", i, err), "", true
			}
			gotApplied += a
			gotRejected += rj
		}
	}
	close(stop)
	wg.Wait()
	if err, ok := readerErr.Load().(error); ok && err != nil {
		return err.Error(), "", true
	}

	if gotApplied != wantApplied || gotRejected != wantRejected {
		return fmt.Sprintf("coordinator applied=%d rejected=%d", gotApplied, gotRejected),
			fmt.Sprintf("single applied=%d rejected=%d", wantApplied, wantRejected), true
	}

	if err := single.Flush(); err != nil {
		return "flushing single store: " + err.Error(), "", true
	}
	for i, s := range stores {
		if err := s.Flush(); err != nil {
			return fmt.Sprintf("flushing shard %d: %v", i, err), "", true
		}
	}

	est, _, release := single.AcquireEstimator()
	defer release()
	full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
	// Tilings must divide the region exactly; probe the trivial ones plus
	// the largest divisor tiling at most 4 per axis.
	div := func(n int) int {
		for d := min(4, n); ; d-- {
			if n%d == 0 {
				return d
			}
		}
	}
	spansRef := core.EstimateSet(est, queries)
	for _, leg := range legs {
		for _, tc := range [][2]int{{1, 1}, {g.NX(), g.NY()}, {div(g.NX()), div(g.NY())}} {
			merged, err := leg.c.EstimateGrid(full, tc[0], tc[1])
			if err != nil {
				return fmt.Sprintf("%s EstimateGrid %dx%d: %v", leg.name, tc[0], tc[1], err), "", true
			}
			ref, err := core.EstimateGrid(est, full, tc[0], tc[1])
			if err != nil {
				return fmt.Sprintf("single EstimateGrid %dx%d: %v", tc[0], tc[1], err), "", true
			}
			for k := range ref {
				if merged[k] != ref[k] {
					return fmt.Sprintf("%s map %dx%d tile %d = %+v (merged)", leg.name, tc[0], tc[1], k, merged[k]),
						fmt.Sprintf("%+v (single)", ref[k]), true
				}
			}
		}
		merged, err := leg.c.EstimateSpans(queries)
		if err != nil {
			return leg.name + " EstimateSpans: " + err.Error(), "", true
		}
		for k := range spansRef {
			if merged[k] != spansRef[k] {
				return fmt.Sprintf("%s span %v = %+v (merged)", leg.name, queries[k], merged[k]),
					fmt.Sprintf("%+v (single)", spansRef[k]), true
			}
		}
	}
	return "", "", false
}

// ---------------------------------------------------------------------------
// Oracle 7: sharded scatter-gather vs one store.

func runShardedVsSingle(seed int64) *Divergence {
	const name = "sharded-vs-single"
	r := gen.Rand(seed)
	g := gen.Grid(r, 24, 24)
	algo, areas := randLiveAlgo(r)
	n := 1 + r.Intn(4)
	if n > g.NX() {
		n = g.NX()
	}
	seedRects := gen.Rects(r, g, 5+r.Intn(25), gen.RectOpts{})
	muts := make([]gen.Mutation, 0, len(seedRects))
	for _, sr := range seedRects {
		muts = append(muts, gen.Mutation{Op: gen.OpInsert, R: sr})
	}
	muts = append(muts, gen.Mutations(r, g, seedRects, 30+r.Intn(90), gen.RectOpts{PointFrac: 0.1})...)
	queries := randQueries(r, g, 20)

	got, want, bad := shardedDiverges(g, algo, areas, n, muts, queries)
	if !bad {
		return nil
	}
	muts = shrinkSlice(muts, 40, func(ms []gen.Mutation) bool {
		_, _, bad := shardedDiverges(g, algo, areas, n, ms, queries)
		return bad
	})
	got, want, _ = shardedDiverges(g, algo, areas, n, muts, queries)
	return &Divergence{
		Check: name, Seed: seed, Grid: gridDesc(g),
		Detail:    fmt.Sprintf("%d-shard scatter-gather (%v) differs from the unsharded store", n, algo),
		Mutations: muts, Got: got, Want: want,
	}
}

// ---------------------------------------------------------------------------
// Oracle 8: WAL-shipped replica, killed and restarted mid-stream, vs its
// leader.

// deadLeader wraps a Handle whose read path is down, forcing the
// coordinator onto the follower; Status keeps answering so the lag gate
// still sees the leader's applied sequence (a read-side failover, not a
// full crash).
type deadLeader struct{ shard.Handle }

func (d deadLeader) EstimateGrid(region grid.Span, cols, rows int) ([]core.Estimate, error) {
	return nil, fmt.Errorf("leader read path down")
}

func (d deadLeader) EstimateSpans(spans []grid.Span) ([]core.Estimate, error) {
	return nil, fmt.Errorf("leader read path down")
}

func runReplicaFailover(seed int64) *Divergence {
	const name = "replica-failover"
	r := gen.Rand(seed)
	g := gen.Grid(r, 20, 20)
	algo, areas := randLiveAlgo(r)
	seedRects := gen.Rects(r, g, 5+r.Intn(20), gen.RectOpts{})
	muts := gen.Mutations(r, g, seedRects, 40+r.Intn(80), gen.RectOpts{PointFrac: 0.1})
	queries := randQueries(r, g, 20)
	cut := len(muts) / 2

	fail := func(detail string) *Divergence {
		return &Divergence{Check: name, Seed: seed, Grid: gridDesc(g), Detail: detail}
	}

	dir, err := os.MkdirTemp("", "spcheck-replica-")
	if err != nil {
		return fail("creating temp dir: " + err.Error())
	}
	defer os.RemoveAll(dir)

	leader, err := live.Open(live.Config{
		Grid: g, Algo: algo, Areas: areas, Seed: seedRects,
		WALPath:      filepath.Join(dir, "leader.wal"),
		RebuildEvery: 1,
		Telemetry:    telemetry.NewRegistry(),
	})
	if err != nil {
		return fail("opening leader: " + err.Error())
	}
	defer leader.Close()

	ckpt := filepath.Join(dir, "follower.ckpt")
	startFollower := func() (*shard.Follower, error) {
		return shard.StartFollower(shard.FollowerConfig{
			Source:         shard.LocalSource{Store: leader},
			CheckpointPath: ckpt,
			PollInterval:   time.Millisecond,
			RebuildEvery:   1,
			Telemetry:      telemetry.NewRegistry(),
		})
	}
	f, err := startFollower()
	if err != nil {
		return fail("starting follower: " + err.Error())
	}

	catchUp := func(f *shard.Follower) error {
		if err := leader.Flush(); err != nil {
			return fmt.Errorf("flushing leader: %w", err)
		}
		target := leader.Seq()
		deadline := time.Now().Add(10 * time.Second)
		for f.Store().VisibleSeq() < target {
			if time.Now().After(deadline) {
				return fmt.Errorf("follower stuck at seq %d of %d", f.Seq(), target)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}

	// First half of the stream replicates live.
	for i, m := range muts[:cut] {
		if _, err := applyMut(leader, m); err != nil {
			f.Close()
			return fail(fmt.Sprintf("mutation %d: %v", i, err))
		}
	}
	if err := catchUp(f); err != nil {
		f.Close()
		return fail(err.Error())
	}

	// Kill the follower mid-soak; the leader keeps writing while it is
	// down; the restart must resume from the follower's own checkpoint.
	if err := f.Close(); err != nil {
		return fail("closing follower mid-stream: " + err.Error())
	}
	for i, m := range muts[cut:] {
		if _, err := applyMut(leader, m); err != nil {
			return fail(fmt.Sprintf("mutation %d: %v", cut+i, err))
		}
	}
	f, err = startFollower()
	if err != nil {
		return fail("restarting follower: " + err.Error())
	}
	defer f.Close()
	if err := catchUp(f); err != nil {
		return fail(err.Error())
	}

	// The caught-up replica must be bit-identical to its leader.
	le, _, lr := leader.AcquireEstimator()
	fe, _, fr := f.Store().AcquireEstimator()
	got, want, bad := estDiff(fe, le, queries)
	lr()
	fr()
	if bad {
		return &Divergence{
			Check: name, Seed: seed, Grid: gridDesc(g),
			Detail:    fmt.Sprintf("restarted follower (%v) differs from its leader", algo),
			Mutations: muts, Got: got, Want: want,
		}
	}

	// Failover: a coordinator whose leader read path is down must serve
	// every query from the follower, still bit-identical.
	c, err := shard.NewCoordinator(shard.Config{
		Shards: []shard.Backends{{
			Leader:    deadLeader{&shard.LocalHandle{Store: leader, Label: "leader"}},
			Followers: []shard.Handle{&shard.LocalHandle{Store: f.Store(), Label: "follower"}},
		}},
		MaxLagBytes:   0,
		ProbeInterval: -1,
		Telemetry:     telemetry.NewRegistry(),
	})
	if err != nil {
		return fail("coordinator: " + err.Error())
	}
	defer c.Close()
	merged, err := c.EstimateSpans(queries)
	if err != nil {
		return fail("failover EstimateSpans: " + err.Error())
	}
	le, _, lr = leader.AcquireEstimator()
	ref := core.EstimateSet(le, queries)
	lr()
	for k := range ref {
		if merged[k] != ref[k] {
			return &Divergence{
				Check: name, Seed: seed, Grid: gridDesc(g),
				Detail: "follower-served failover read differs from the leader",
				Query:  &queries[k],
				Got:    fmt.Sprintf("%+v", merged[k]),
				Want:   fmt.Sprintf("%+v", ref[k]),
			}
		}
	}
	return nil
}
