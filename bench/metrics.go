package main

import "repro/internal/metrics"

// metricSpec declares one reported metric; the lists below must equal
// the ones in BENCHMARK.json (a unit test compares them).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the metrics a client of the system sees. bound is the
// share of the parent's median by which a metric may worsen. fail_ratio
// is reported beside them (as attempted/failed in the JSON result): it is
// 0 on every workload, and a relative bound on 0 means nothing.
var endToEnd = []metricSpec{
	{"req_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p99_ms", "ms", "lower", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
	{"sem_accuracy", "ratio", "higher", 0.02},
	{"payload_b_per_msg", "B", "lower", 0.02},
	{"sim_latency_ms", "ms", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, named
// layer.metric after the repo's packages. They carry no bound.
var perLayer = []metricSpec{
	{Name: "rpc.req_encode_us", Unit: "us", Better: "lower"},
	{Name: "rpc.req_decode_us", Unit: "us", Better: "lower"},
	{Name: "rpc.resp_encode_us", Unit: "us", Better: "lower"},
	{Name: "rpc.resp_decode_us", Unit: "us", Better: "lower"},
	{Name: "rpc.req_bytes", Unit: "B", Better: "lower"},
	{Name: "rpc.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "rpc.allocs_per_roundtrip", Unit: "count", Better: "lower"},
	{Name: "rpc.ping_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "edged.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "edged.service_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "edged.service_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "edged.queue_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "edged.shed", Unit: "count", Better: "lower"},
	{Name: "edged.wire_overhead_us", Unit: "us", Better: "lower"},
	{Name: "text.tokenize_us", Unit: "us", Better: "lower"},
	{Name: "selection.select_us", Unit: "us", Better: "lower"},
	{Name: "selection.accuracy", Unit: "ratio", Better: "higher"},
	{Name: "core.transmit_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.transmit_us_per_token", Unit: "us", Better: "lower"},
	{Name: "core.stage_sum_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.handover_export_us", Unit: "us", Better: "lower"},
	{Name: "core.handover_import_us", Unit: "us", Better: "lower"},
	{Name: "edge.acquire_us", Unit: "us", Better: "lower"},
	{Name: "edge.encode_us", Unit: "us", Better: "lower"},
	{Name: "edge.decode_us", Unit: "us", Better: "lower"},
	{Name: "edge.record_us", Unit: "us", Better: "lower"},
	{Name: "semantic.encode_us_per_token", Unit: "us", Better: "lower"},
	{Name: "semantic.decode_us_per_token", Unit: "us", Better: "lower"},
	{Name: "channel.send_us_per_token", Unit: "us", Better: "lower"},
	{Name: "channel.symbols_per_token", Unit: "count", Better: "lower"},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_evict_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.sender_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.cached_models", Unit: "count", Better: "higher"},
	{Name: "cache.used_bytes", Unit: "B", Better: "lower"},
	{Name: "cache.individual_share", Unit: "ratio", Better: "higher"},
	{Name: "cache.update_waste", Unit: "ratio", Better: "lower"},
	{Name: "fl.update_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fl.update_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "fl.updates_per_1k_req", Unit: "count", Better: "lower"},
	{Name: "fl.sync_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "fl.update_time_share", Unit: "ratio", Better: "lower"},
	{Name: "mesh.move_handover_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mesh.move_noop_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mesh.handovers", Unit: "count", Better: "higher"},
	{Name: "mesh.models_per_handover", Unit: "count", Better: "higher"},
	{Name: "mesh.migrated_bytes_per_handover", Unit: "B", Better: "lower"},
	{Name: "mesh.neighbor_hits", Unit: "count", Better: "higher"},
	{Name: "mesh.origin_fetches", Unit: "count", Better: "lower"},
	{Name: "mesh.move_time_share", Unit: "ratio", Better: "lower"},
	{Name: "kb.pretrain_s", Unit: "s", Better: "lower"},
	{Name: "kb.load_ms", Unit: "ms", Better: "lower"},
	{Name: "kb.store_bytes", Unit: "B", Better: "lower"},
	{Name: "client.cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "client.raw_req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.machine_speed", Unit: "ratio", Better: "higher"},
}

// median is the aggregate over repetitions: the middle value, or the mean
// of the middle two.
func median(vals []float64) float64 { return metrics.Percentile(vals, 50) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// e2eOf computes one repetition's end-to-end metrics. The four timed ones
// are at the reference machine's speed (see yardstick.go): throughput and
// CPU cost are the median over the repetition's slices, the latency
// percentiles are over every transmit of the repetition, each scaled by
// its slice's speed.
func e2eOf(r *repResult, pretrainS float64) map[string]float64 {
	ok := float64(r.ok)
	rates := make([]float64, len(r.slices))
	cpus := make([]float64, len(r.slices))
	for i, sl := range r.slices {
		rates[i], cpus[i] = sl.reqPerS, sl.cpuUsPerReq
	}
	return map[string]float64{
		"req_per_s":         median(rates),
		"lat_p50_ms":        metrics.Percentile(r.scaledLats, 50),
		"lat_p99_ms":        metrics.Percentile(r.scaledLats, 99),
		"cpu_us_per_req":    median(cpus),
		"rss_mb":            r.rssMB,
		"sem_accuracy":      ratio(r.accSum, ok),
		"payload_b_per_msg": ratio(r.payload, ok),
		"sim_latency_ms":    ratio(r.simLat, ok),
		"setup_s":           pretrainS + r.bootS + r.warmS,
	}
}

// layerOf computes the per-layer metrics of a workload from its traced
// repetition tr (wire spans and stats deltas), the stage replay rp, the
// frame costs fc and the measured tracing overhead.
func layerOf(e *env, tr *repResult, rp *replayResult, fc frameCosts, traceOverheadPct float64) map[string]float64 {
	ok := float64(tr.ok)
	m := map[string]float64{
		"rpc.req_encode_us":        fc.reqEncodeUs,
		"rpc.req_decode_us":        fc.reqDecodeUs,
		"rpc.resp_encode_us":       fc.respEncodeUs,
		"rpc.resp_decode_us":       fc.respDecodeUs,
		"rpc.req_bytes":            fc.reqBytes,
		"rpc.resp_bytes":           fc.respBytes,
		"rpc.allocs_per_roundtrip": fc.allocsPerRoundtrip,
		"rpc.ping_rtt_p50_us":      metrics.Percentile(tr.pingRTTUs, 50),

		"edged.boot_ms": tr.bootS * 1e3,

		"selection.accuracy": ratio(float64(tr.selCorrect), ok),

		"cache.individual_share": ratio(float64(tr.individual), ok),

		"kb.pretrain_s":  e.pretrainS,
		"kb.store_bytes": float64(e.storeBytes),

		"client.cpu_us_per_req":     ratio(tr.clientCPUS*1e6, ok),
		"client.trace_overhead_pct": traceOverheadPct,
		"client.raw_req_per_s":      ratio(ok, tr.wallS),
		"client.machine_speed":      tr.speed,
	}
	if tr.eligible > 0 {
		m["cache.update_waste"] = 1 - float64(tr.eligInd)/float64(tr.eligible)
	}

	// S2: the daemon's stats op, as deltas over the measured window where
	// the counter is cumulative; histograms and gauges read at window end.
	b, a := tr.before, tr.after
	if sv := a.Serve; sv != nil {
		m["edged.service_p50_ms"] = sv.LatencyP50Ms
		m["edged.service_p99_ms"] = sv.LatencyP99Ms
		m["edged.queue_wait_p99_ms"] = sv.QueueWaitP99Ms
		m["edged.wire_overhead_us"] = (metrics.Percentile(tr.lats, 50) - sv.LatencyP50Ms) * 1e3
		if b.Serve != nil {
			m["edged.shed"] = float64(sv.Shed - b.Serve.Shed)
		}
	}
	m["cache.sender_hit_rate"] = a.SenderHitRate
	m["cache.cached_models"] = float64(a.CachedModels)
	m["cache.used_bytes"] = float64(a.CacheUsedBytes)
	updates := float64(a.SyncCount - b.SyncCount)
	m["fl.updates_per_1k_req"] = ratio(1000*updates, ok)
	m["fl.sync_bytes_per_update"] = ratio(float64(a.SyncBytes-b.SyncBytes), updates)
	m["fl.update_time_share"] = ratio(sum(tr.updLats), tr.latSum)
	handovers := float64(a.Handovers - b.Handovers)
	m["mesh.handovers"] = handovers
	m["mesh.models_per_handover"] = ratio(float64(tr.models), handovers)
	m["mesh.migrated_bytes_per_handover"] = ratio(float64(a.MigratedBytes-b.MigratedBytes), handovers)
	// Cold members fill their caches once, during warm-up, so these two
	// are totals since boot rather than window deltas.
	for _, n := range a.Nodes {
		m["mesh.neighbor_hits"] += float64(n.NeighborHits)
		m["mesh.origin_fetches"] += float64(n.OriginFetches)
	}
	m["mesh.move_handover_ms_p50"] = metrics.Percentile(tr.moveHandover, 50)
	m["mesh.move_noop_ms_p50"] = metrics.Percentile(tr.moveNoop, 50)
	m["mesh.move_time_share"] = ratio(tr.moveMs/1e3, tr.wallS)

	// S3: the in-process stage replay.
	n, tok := float64(rp.requests), float64(rp.tokens)
	m["kb.load_ms"] = rp.kbLoadMs
	m["text.tokenize_us"] = ratio(rp.stageUs["text.tokenize"], n)
	m["selection.select_us"] = ratio(rp.stageUs["selection.select"], n)
	m["edge.acquire_us"] = ratio(rp.stageUs["edge.acquire"], n)
	m["edge.encode_us"] = ratio(rp.stageUs["edge.encode"], n)
	m["edge.decode_us"] = ratio(rp.stageUs["edge.decode"], n)
	m["edge.record_us"] = ratio(rp.stageUs["edge.record"], n)
	m["channel.send_us_per_token"] = ratio(rp.stageUs["channel.send"], tok)
	m["channel.symbols_per_token"] = ratio(float64(rp.symbols), tok)
	m["semantic.encode_us_per_token"] = rp.semEncUs
	m["semantic.decode_us_per_token"] = rp.semDecUs
	m["cache.get_hit_ns"] = rp.cacheGetNs
	m["cache.put_evict_ns"] = rp.cachePutNs
	m["core.transmit_us_p50"] = metrics.Percentile(rp.transmitUs, 50)
	m["core.transmit_us_per_token"] = ratio(rp.transmitSumUs, tok)
	stageSum := 0.0
	for _, s := range stages {
		stageSum += rp.stageUs[s]
	}
	m["core.stage_sum_ratio"] = ratio(stageSum, rp.transmitSumUs)
	m["core.handover_export_us"] = metrics.Percentile(rp.exportUs, 50)
	m["core.handover_import_us"] = metrics.Percentile(rp.importUs, 50)
	m["fl.update_ms_p50"] = metrics.Percentile(rp.updateMs, 50)
	m["fl.update_ms_p99"] = metrics.Percentile(rp.updateMs, 99)
	for _, spec := range perLayer {
		if _, ok := m[spec.Name]; !ok {
			m[spec.Name] = 0
		}
	}
	return m
}

func sum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}
