package main

import (
	"fmt"
	"strconv"
	"time"
)

// endToEnd derives the metrics a user of the service sees, scaled to the
// baseline host by the reference timed in the same phase of the run: the
// rate by the reference's rate, latencies by its median latency, CPU per
// request by its CPU per request, and setup_s by its rate during the
// set-ups. Each note gives the figure as measured.
//
// e2e are gated by BENCHMARK.json; extra are printed beside them but
// cannot carry a relative bound: the p99 latencies grow faster than the
// host slows, so neither scaling nor longer runs hold them within one;
// the ingest latencies exist on one workload only; failed_frac is zero
// on a clean run.
func endToEnd(w *workload, ws *windowStats, m *measured, su *setUps, rssMB float64,
	failed, attempted int) (e2e, extra []metric) {
	secs := m.to.Sub(m.from).Seconds()
	scaled := func(name string, v, slower float64, unit, note string) metric {
		return metric{name, v / slower, unit, fmt.Sprintf("measured %.6g; %s", v, note)}
	}
	h := m.host
	pct := func(name, ep string) []metric {
		l := ws.lat[ep]
		n := fmt.Sprintf("n=%d", l.samples())
		return []metric{
			scaled(name+"_p50_ms", l.percentile(0.50), h.latency, "ms", n),
			scaled(name+"_p99_ms", l.percentile(0.99), h.latency, "ms", n),
		}
	}
	rps := float64(ws.browsing) / secs
	var cpu time.Duration
	for _, c := range m.cpu {
		cpu += c
	}
	e2e = []metric{
		scaled("setup_s", median(su.secs), su.host.rate, "s",
			fmt.Sprintf("median of %d set-ups %v", len(su.secs), roundAll(su.secs))),
		scaled("throughput_rps", rps, 1/h.rate, "req/s",
			fmt.Sprintf("%d browse-path requests in %.3fs", ws.browsing, secs)),
	}
	browse, drill, query := pct("browse", epBrowse), pct("drill", epDrill), pct("query", epQuery)
	e2e = append(e2e, browse[0], drill[0], query[0],
		scaled("server_cpu_us_per_req", ratio(float64(cpu.Microseconds()), float64(ws.completed)), h.cpu, "us",
			fmt.Sprintf("base: %d completed requests", ws.completed)),
		metric{"server_rss_peak_mb", rssMB, "MB", "sum of VmHWM"},
	)
	extra = []metric{browse[1], drill[1], query[1], {"failed_frac", ratio(float64(failed), float64(attempted)), "ratio",
		fmt.Sprintf("base: %d attempted incl. verification", attempted)}}
	if w.ingestRate > 0 {
		extra = append(extra, pct("ingest", epIngest)...)
		extra[len(extra)-2].note += ", from due time"
	} else {
		extra = append(extra,
			metric{"ingest_p50_ms", 0, "ms", "no ingest on this workload"},
			metric{"ingest_p99_ms", 0, "ms", "no ingest on this workload"})
	}
	return e2e, extra
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return out
}

// pyramidLevels is how many zoom levels core.level_share reports: the
// base and the four coarse levels geobrowsed builds by default.
const pyramidLevels = 5

// perLayer derives the per-layer metrics of a traced run from the
// servers' /metrics deltas, their /proc figures and the in-process
// replay. A layer the workload does not exercise reports 0.
func perLayer(w *workload, ws *windowStats, m *measured, rss map[string]float64,
	ref *reference, rp *replayed, extra []metric) []metric {
	d := m.metrics
	var out []metric
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{name, v, unit, note})
	}
	base := func(what string, v float64) string { return fmt.Sprintf("base: %.0f %s", v, what) }

	// geobrowse: the HTTP handlers of a static server (the coordinator
	// has no handler instrumentation, so these read 0 on shard-ingest).
	for _, ep := range []string{epBrowse, epDrill, epQuery} {
		cnt := d.sum("geobrowse_http_request_seconds_count", "endpoint", ep)
		add("geobrowse.handler_us."+epName(ep),
			1e6*ratio(d.sum("geobrowse_http_request_seconds_sum", "endpoint", ep), cnt), "us", base("requests", cnt))
	}
	for _, ep := range []string{epBrowse, epDrill, epQuery} {
		cnt := d.sum("geobrowse_http_request_seconds_count", "endpoint", ep)
		add("geobrowse.response_kb."+epName(ep),
			ratio(d.sum("geobrowse_http_response_bytes_total", "endpoint", ep), cnt)/1e3, "KB", base("requests", cnt))
	}
	hits := d.sum("geobrowse_cache_hits_total") + d.sum("geobrowse_cache_dedup_total")
	lookups := hits + d.sum("geobrowse_cache_misses_total")
	add("geobrowse.cache_hit_ratio", ratio(hits, lookups), "ratio", base("cache lookups", lookups))
	browses := d.sum("geobrowse_http_request_seconds_count", "endpoint", epBrowse)
	add("geobrowse.cache_evictions_per_kreq", 1e3*ratio(d.sum("geobrowse_cache_evictions_total"), browses),
		"1/kreq", base("browse requests", browses))
	tileSums := map[string][2]float64{} // endpoint -> encode ns, tiles
	var gridNs, gridTiles, drillNs, drills, estNs, ests float64
	for _, s := range rp.spans {
		dur := float64(s.End - s.Start)
		switch s.Name {
		case spanEncode:
			t := tileSums[s.Parent]
			tileSums[s.Parent] = [2]float64{t[0] + dur, t[1] + float64(s.Tiles)}
		case spanGrid:
			gridNs, gridTiles = gridNs+dur, gridTiles+float64(s.Tiles)
		case spanDrill:
			drillNs, drills = drillNs+dur, drills+1
		case spanEstimate:
			estNs, ests = estNs+dur, ests+1
		}
	}
	for _, ep := range []string{epBrowse, epDrill, epQuery} {
		t := tileSums[ep]
		add("geobrowse.encode_ns_per_tile."+epName(ep), ratio(t[0], t[1]), "ns", base("tiles replayed", t[1]))
	}

	// core: the estimation layer.
	tiles := d.sum("core_tile_estimates_total")
	add("core.sweep_ns_per_tile", 1e9*ratio(d.sum("core_batch_sweep_seconds_sum"), tiles), "ns", base("tiles swept", tiles))
	add("core.sweeps_per_req", ratio(d.sum("core_batch_sweeps_total"), float64(ws.browsing)), "1/req",
		base("browse-path requests", float64(ws.browsing)))
	routed := d.sum("core_pyramid_level_hits_total")
	for k := 0; k < pyramidLevels; k++ {
		add("core.level_share."+strconv.Itoa(k), ratio(d.sum("core_pyramid_level_hits_total", "level", strconv.Itoa(k)), routed),
			"ratio", base("routed estimates", routed))
	}
	add("core.estimate_grid_ns_per_tile.served", ratio(gridNs, gridTiles), "ns", base("tiles replayed through the zoom stack", gridTiles))
	add("core.estimate_grid_ns_per_tile.full", ratio(rp.fullNs, float64(rp.tierTiles)), "ns", base("base-level tiles", float64(rp.tierTiles)))
	add("core.estimate_grid_ns_per_tile.packed", ratio(rp.packedNs, float64(rp.tierTiles)), "ns", base("base-level tiles", float64(rp.tierTiles)))
	add("core.drilldown_us", ratio(drillNs, drills)/1e3, "us", base("drills replayed", drills))
	add("core.estimate_ns", ratio(estNs, ests), "ns", base("queries replayed", ests))

	// euler: the reference build the replay ran on.
	add("euler.build_ms", ref.buildMs, "ms", fmt.Sprintf("%d objects, M-EulerApprox plus pyramids", w.n))

	// live: the shard nodes' stores.
	pubs := d.sum("live_rebuild_seconds_count")
	add("live.publish_ms", 1e3*ratio(d.sum("live_rebuild_seconds_sum"), pubs), "ms", base("publishes", pubs))
	add("live.publishes", pubs, "count", "summed over shard nodes")
	inc, full := d.sum("live_rebuild_incremental_total"), d.sum("live_rebuild_full_total")
	add("live.incremental_ratio", ratio(inc, inc+full), "ratio", base("publishes", inc+full))
	muts := d.sum("live_mutations_total")
	add("live.wal_bytes_per_mutation", ratio(d.sum("live_wal_bytes_total"), muts), "B", base("mutations", muts))

	// shard: the coordinator's scatter-gather.
	fan := d.sum("shard_fanout_seconds_count")
	add("shard.fanout_us", 1e6*ratio(d.sum("shard_fanout_seconds_sum"), fan), "us", base("scatters", fan))
	merges := d.sum("shard_merge_seconds_count")
	add("shard.merge_us", 1e6*ratio(d.sum("shard_merge_seconds_sum"), merges), "us", base("merges", merges))
	add("shard.node_estimates_per_req", ratio(d.sum("shard_node_estimate_total"), float64(ws.browsing)), "1/req",
		base("browse-path requests", float64(ws.browsing)))
	scatterErrs := d.sum("shard_scatter_errors_total")
	reads := d.sum("shard_reads_total") + scatterErrs
	add("shard.scatter_error_ratio", ratio(scatterErrs, reads), "ratio", base("backend reads", reads))

	// proc: each server role's share of CPU and memory.
	for _, role := range []string{"static", "coordinator", "shard"} {
		add("proc.cpu_us_per_req."+role, ratio(float64(m.cpu[role].Microseconds()), float64(ws.completed)), "us",
			base("completed requests", float64(ws.completed)))
	}
	for _, role := range []string{"static", "coordinator", "shard"} {
		add("proc.rss_peak_mb."+role, rss[role], "MB", "sum of VmHWM")
	}

	// client: the load generator itself.
	add("client.late_ms_p99", ws.late.percentile(0.99), "ms", fmt.Sprintf("n=%d open-loop sends", ws.late.samples()))
	if ws.late.samples() == 0 {
		out[len(out)-1].value = 0
	}
	for _, e := range extra {
		add("client."+e.name, e.value, e.unit, e.note)
	}

	// host: the reference the end-to-end figures of the window are scaled by.
	h, hb := m.host, w.refBaseline
	add("host.reference_rps", h.mean.rps, "req/s", fmt.Sprintf("%d timings; baseline host %.4g", len(h.runs), hb.rps))
	add("host.reference_p50_ms", h.mean.p50ms, "ms", fmt.Sprintf("%d timings; baseline host %.4g", len(h.runs), hb.p50ms))
	add("host.reference_cpu_us_per_req", h.mean.cpuUs, "us", fmt.Sprintf("%d timings; baseline host %.4g", len(h.runs), hb.cpuUs))

	add("trace.overhead_frac", rp.tracedMs/rp.untracedMs-1, "ratio",
		fmt.Sprintf("base: untraced replay %.1fms, traced %.1fms", rp.untracedMs, rp.tracedMs))
	return out
}

func epName(ep string) string { return ep[len("/api/"):] }
