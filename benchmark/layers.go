package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	hcpath "repro"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/msbfs"
	"repro/internal/pathenum"
	"repro/internal/pathjoin"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/timing"
)

// perLayer lists the single-layer metrics of the traced run, named
// <module>.<what>. Every workload reports every one (the acceptance
// driver requires a uniform set); a layer a workload does not reach
// reads zero. "per_batch" means per offline batch on the offline
// workloads and per micro-batch on the serving ones. The README maps
// each to the end-to-end metric it should move, and on which workload.
var perLayer = []metricDef{
	{"graph.build_ms", "ms", "lower", 0},

	{"msbfs.build_ms_per_batch", "ms", "lower", 0},
	{"msbfs.visited_per_batch", "count", "lower", 0},
	{"msbfs.ns_per_visited", "ns", "lower", 0},

	{"hcindex.acquire_ms_per_batch", "ms", "lower", 0},
	{"hcindex.hit_ratio", "ratio", "higher", 0},
	{"hcindex.widened_share", "ratio", "higher", 0},
	{"hcindex.evictions_per_kq", "count", "lower", 0},
	{"hcindex.cache_mb", "MiB", "lower", 0},

	{"cluster.ms_per_batch", "ms", "lower", 0},
	{"cluster.groups_per_query", "ratio", "lower", 0},

	{"sharegraph.detect_ms_per_batch", "ms", "lower", 0},
	{"sharegraph.shared_per_batch", "count", "higher", 0},
	{"sharegraph.spliced_share", "ratio", "higher", 0},

	{"pathenum.half_ms_per_query", "ms", "lower", 0},
	{"pathjoin.join_ms_per_query", "ms", "lower", 0},
	{"pathjoin.halfpaths_per_path", "ratio", "lower", 0},

	{"batchenum.batch_p50_ms", "ms", "lower", 0},
	{"batchenum.batch_p95_ms", "ms", "lower", 0},
	{"batchenum.index_share", "ratio", "lower", 0},
	{"batchenum.enumerate_ms_per_batch", "ms", "lower", 0},
	{"batchenum.standalone_ms_per_batch", "ms", "lower", 0},
	{"batchenum.sharing_gain", "ratio", "higher", 0},
	{"batchenum.self_ms_per_batch", "ms", "lower", 0},

	{"service.queue_wait_ms_p50", "ms", "lower", 0},
	{"service.queue_wait_ms_p99", "ms", "lower", 0},
	{"service.queries_per_batch", "count", "higher", 0},
	{"service.queries_per_batch_closed", "count", "higher", 0},
	{"service.enumerate_ms_per_batch", "ms", "lower", 0},
	{"service.sharing_ratio", "ratio", "higher", 0},
	{"service.overhead_ms_per_query", "ms", "lower", 0},
	{"service.shed", "count", "lower", 0},
	{"service.truncated", "count", "lower", 0},

	{"store.update_p50_ms", "ms", "lower", 0},
	{"store.restart_s", "s", "lower", 0},
	{"store.apply_ms_per_update", "ms", "lower", 0},
	{"store.wal_ms_per_update", "ms", "lower", 0},
	{"store.wal_bytes_per_edge", "B", "lower", 0},
	{"store.compactions", "count", "higher", 0},
	{"store.checkpoints", "count", "higher", 0},
	{"store.delta_edges_max", "count", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},

	{"shard.cross_share", "ratio", "lower", 0},
	{"shard.epoch_retries", "count", "lower", 0},
	{"shard.cross_shed", "count", "lower", 0},
	{"shard.worker_imbalance", "ratio", "lower", 0},
	{"shard.coord_overhead_ms_per_query", "ms", "lower", 0},
	{"shard.vs_single_ratio", "ratio", "higher", 0},

	{"wire.rpcs_per_query", "count", "lower", 0},
	{"wire.rpcs_per_flush", "ratio", "higher", 0},
	{"wire.bytes_per_query", "B", "lower", 0},
	{"wire.rtt_us_p50", "us", "lower", 0},
	{"wire.connect_ms", "ms", "lower", 0},

	{"runtime.gc_cycles_per_kq", "count", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},

	{"loadgen.lat_p95_ms", "ms", "lower", 0},
	{"loadgen.lat_p99_ms", "ms", "lower", 0},
	{"loadgen.late_ms_p99", "ms", "lower", 0},
	{"loadgen.backlog_end", "count", "lower", 0},
	{"loadgen.inputs_s", "s", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// runTraced is the traced run: a shorter window with the span recorder
// on, followed by replays that time each layer's public entry points on
// the same inputs. It fills every per-layer metric (zero where the
// workload does not reach the layer) and writes trace_<workload>.json.
func runTraced(sys *system, in *inputs, cfg runConfig, window time.Duration, inputsTime time.Duration, tr *tracer, t *tally, res *result) error {
	for _, d := range perLayer {
		res.setValue(perLayer, d.Name, 0)
	}
	res.setValue(perLayer, "graph.build_ms", ms(sys.graphBuild))
	res.setValue(perLayer, "loadgen.inputs_s", inputsTime.Seconds())

	// The replays bind their index acquisitions to a live store snapshot,
	// the way the service does, rather than to a constant epoch.
	snap := store.New(in.g, store.Options{}).Current()

	var err error
	if sys.spec.offline() {
		tracedOffline(sys, snap, window, tr, t, res)
	} else {
		err = tracedServing(sys, in, snap, cfg, window, tr, t, res)
	}
	if err != nil {
		return err
	}
	return tr.write(filepath.Join(cfg.OutDir, "trace_"+sys.spec.Name+".json"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedOffline: an untraced reference window, the traced window, then
// the layer replays over every distinct batch.
func tracedOffline(sys *system, snap *store.Snapshot, window time.Duration, tr *tracer, t *tally, res *result) {
	ref, _ := offlineWindow(sys, window/4, t, nil)
	gc0 := sampleProc()
	slices, stats := offlineWindow(sys, window/2, t, tr)
	gc1 := sampleProc()
	setRuntime(res, gc0, gc1, slices)
	setOverhead(res, ref, slices)

	var lat []float64
	var wall, idx, clu, det, enum float64
	var shared, groups int
	var spliced int64
	for i := range slices {
		lat = append(lat, slices[i].lat...)
	}
	for _, l := range lat {
		wall += l
	}
	for _, st := range stats {
		idx += float64(st.IndexNanos) / 1e6
		clu += float64(st.ClusterNanos) / 1e6
		det += float64(st.DetectNanos) / 1e6
		enum += float64(st.EnumerateNanos) / 1e6
		shared += st.SharedQueries
		groups += st.Groups
		spliced += st.SplicedPaths
	}
	nb := float64(len(stats))
	if nb == 0 {
		return
	}
	var paths, queries int64
	for i := range stats {
		b := sys.batches[i%len(sys.batches)]
		queries += int64(len(b))
		for _, r := range b {
			paths += r.Want
		}
	}
	res.setValue(perLayer, "batchenum.batch_p50_ms", percentile(lat, 50))
	res.setValue(perLayer, "batchenum.batch_p95_ms", percentile(lat, 95))
	res.setValue(perLayer, "batchenum.index_share", ratio(idx, wall))
	res.setValue(perLayer, "batchenum.enumerate_ms_per_batch", enum/nb)
	res.setValue(perLayer, "batchenum.self_ms_per_batch", (wall-idx-clu-det-enum)/nb)
	res.setValue(perLayer, "sharegraph.detect_ms_per_batch", det/nb)
	res.setValue(perLayer, "sharegraph.shared_per_batch", float64(shared)/nb)
	res.setValue(perLayer, "sharegraph.spliced_share", ratio(float64(spliced), float64(paths)))
	res.setValue(perLayer, "cluster.groups_per_query", ratio(float64(groups), float64(queries)))

	var batches [][]query.Query
	for _, b := range sys.batches {
		batches = append(batches, internalQueries(b))
	}
	// The offline engine builds its index cold per batch with an unpooled
	// builder; the replay uses the same provider.
	sums := replayLayers(snap, batches, hcindex.NewBuilder(false), tr)
	sums.report(res)
	res.setValue(perLayer, "batchenum.sharing_gain", ratio(ms(sums.standalone)/float64(sums.batches), enum/nb))
}

// setRuntime reports GC activity over the traced window.
func setRuntime(res *result, from, to procSample, slices []slice) {
	ops := 0
	for i := range slices {
		ops += slices[i].ops
	}
	res.setValue(perLayer, "runtime.gc_cycles_per_kq", ratio(float64(to.gcCycles-from.gcCycles)*1000, float64(ops)))
	res.setValue(perLayer, "runtime.gc_pause_ms_total", ms(to.gcPause-from.gcPause))
}

// setOverhead reports what tracing cost: CPU per query of the traced
// window over the untraced reference window before it, minus one.
func setOverhead(res *result, ref, traced []slice) {
	base := overSlices(ref, (*slice).cpuMsPerQuery).Median
	with := overSlices(traced, (*slice).cpuMsPerQuery).Median
	if base > 0 && !math.IsNaN(with) {
		res.setValue(perLayer, "trace.overhead_pct", 100*(with/base-1))
	}
}

// layerSums accumulates the replays of the layers' public entry points
// over a list of batches.
type layerSums struct {
	batches, queries int

	msbfsTime time.Duration
	visited   int64

	acquire time.Duration

	cluster time.Duration
	groups  int

	sampled              int
	half, join           time.Duration
	halfPaths, joinPaths int64

	standalone time.Duration
}

// replayLayers times, per batch: the two MS-BFS passes over the batch's
// distinct endpoints (msbfs), the provider's Acquire (hcindex), query
// clustering (cluster), and — on the acquired index — both half
// searches and the join for one query in twenty (pathenum, pathjoin)
// and every query's standalone PathEnum (the no-sharing enumeration
// cost batchenum is compared against).
func replayLayers(snap *store.Snapshot, batches [][]query.Query, provider hcindex.Provider, tr *tracer) layerSums {
	g, gr := snap.Graph(), snap.Reverse()
	var s layerSums
	opts := pathenum.Options{Optimized: true} // BatchEnum+ is the default engine
	for _, raw := range batches {
		qs, err := query.Batch(g, raw)
		if err != nil || len(qs) == 0 {
			continue
		}
		s.batches++
		s.queries += len(qs)

		fsrc, fcap := distinctEndpoints(qs, func(q query.Query) graph.VertexID { return q.S })
		bsrc, bcap := distinctEndpoints(qs, func(q query.Query) graph.VertexID { return q.T })
		var maps []*msbfs.DistMap
		s.msbfsTime += tr.timed("msbfs.MultiSourceOpts", func() {
			maps = msbfs.MultiSourceOpts(g, fsrc, fcap, nil, msbfs.BuildOptions{})
			maps = append(maps, msbfs.MultiSourceOpts(gr, bsrc, bcap, nil, msbfs.BuildOptions{})...)
		})
		for _, dm := range maps {
			s.visited += int64(dm.NumVisited())
		}

		var idx *hcindex.Index
		s.acquire += tr.timed("hcindex.Acquire", func() {
			idx = provider.Acquire(g, gr, snap.Epoch(), qs)
		})

		var cl *cluster.Clustering
		s.cluster += tr.timed("cluster.ClusterQueries", func() {
			cl = cluster.ClusterQueries(idx, qs, 0.5)
		})
		s.groups += cl.NumGroups()

		for i, q := range qs {
			fwd, bwd := idx.DistMapFor(i, hcindex.Forward), idx.DistMapFor(i, hcindex.Backward)
			if i%20 == 0 && bwd.Dist(q.S) <= q.K {
				s.sampled++
				fb, bb := pathenum.BalancedCut(q, fwd, bwd)
				fp, bp := pathjoin.NewStore(64, 256), pathjoin.NewStore(64, 256)
				s.half += tr.timed("pathenum.CollectHalf", func() {
					pathenum.CollectHalf(g, q.S, fb, q.K, bwd, opts, nil, fp)
					pathenum.CollectHalf(gr, q.T, bb, q.K, fwd, opts, nil, bp)
				})
				s.halfPaths += int64(fp.Len() + bp.Len())
				s.join += tr.timed("pathjoin.JoinHalves", func() {
					pathjoin.JoinHalves(fp, bp, q.K, fb < bb, func([]graph.VertexID) { s.joinPaths++ })
				})
			}
			s.standalone += tr.timed("pathenum.Enumerate", func() {
				pathenum.Enumerate(g, gr, q, fwd, bwd, opts, func([]graph.VertexID) {})
			})
		}
		idx.Release()
	}
	return s
}

// internalQueries lowers public queries to the internal form the layer
// replays call into.
func internalQueries(batch []qrec) []query.Query {
	out := make([]query.Query, len(batch))
	for i, r := range batch {
		out[i] = query.Query{S: r.Q.S, T: r.Q.T, K: uint8(r.Q.K)}
	}
	return out
}

// distinctEndpoints lists the batch's distinct (vertex, cap) pairs on
// one side, the sources hcindex would hand the MS-BFS kernel.
func distinctEndpoints(qs []query.Query, pick func(query.Query) graph.VertexID) ([]graph.VertexID, []uint8) {
	type key struct {
		v graph.VertexID
		k uint8
	}
	seen := make(map[key]bool)
	var vs []graph.VertexID
	var ks []uint8
	for _, q := range qs {
		k := key{pick(q), q.K}
		if !seen[k] {
			seen[k] = true
			vs, ks = append(vs, k.v), append(ks, k.k)
		}
	}
	return vs, ks
}

func (s layerSums) report(res *result) {
	if s.batches == 0 {
		return
	}
	nb := float64(s.batches)
	res.setValue(perLayer, "msbfs.build_ms_per_batch", ms(s.msbfsTime)/nb)
	res.setValue(perLayer, "msbfs.visited_per_batch", float64(s.visited)/nb)
	res.setValue(perLayer, "msbfs.ns_per_visited", ratio(float64(s.msbfsTime), float64(s.visited)))
	res.setValue(perLayer, "hcindex.acquire_ms_per_batch", ms(s.acquire)/nb)
	res.setValue(perLayer, "cluster.ms_per_batch", ms(s.cluster)/nb)
	if s.sampled > 0 {
		res.setValue(perLayer, "pathenum.half_ms_per_query", ms(s.half)/float64(s.sampled))
		res.setValue(perLayer, "pathjoin.join_ms_per_query", ms(s.join)/float64(s.sampled))
		res.setValue(perLayer, "pathjoin.halfpaths_per_path", ratio(float64(s.halfPaths), float64(s.joinPaths)))
	}
	res.setValue(perLayer, "batchenum.standalone_ms_per_batch", ms(s.standalone)/nb)
}

// tracedServing: an untraced open-loop reference, then both serving
// phases traced, then the deployment-specific readings and the layer
// replays over the served stream.
func tracedServing(sys *system, in *inputs, snap *store.Snapshot, cfg runConfig, window time.Duration, tr *tracer, t *tally, res *result) error {
	w := sys.spec
	quarter := window / 4
	var wr *writer
	if len(sys.updates) > 0 {
		wr = startWriter(sys, t, tr)
	}
	before := sys.svc.Totals()
	wireBefore, bytesBefore := sys.svc.Wire(), sys.wireBytes()

	ref := openLoop(sys, quarter, w.RateQPS, cfg.Seed, w.WarmupOps, t, nil)
	tr.takeBatches() // the reference phase's micro-batches are not reported
	gc0 := sampleProc()
	open := openLoop(sys, quarter, w.RateQPS, cfg.Seed+1, w.WarmupOps+len(ref.ops), t, tr)
	openBatches := tr.takeBatches()
	closed := closedLoop(sys, quarter, w.WarmupOps+len(ref.ops)+len(open.ops), t, tr)
	closedBatches := tr.takeBatches()
	gc1 := sampleProc()
	if wr != nil {
		wr.stop()
	}
	after := sys.svc.Totals()

	openSlices := open.slices(byDue)
	setRuntime(res, gc0, gc1, append(openSlices, closed.slices(byDone)...))
	setOverhead(res, ref.slices(byDue), openSlices)

	// loadgen: how late the pacer ran, and what was still in flight when
	// the last arrival was sent.
	var late []float64
	for _, op := range open.ops {
		late = append(late, ms(op.sent-op.due))
	}
	var lat []float64
	for i := range openSlices {
		lat = append(lat, openSlices[i].lat...)
	}
	res.setValue(perLayer, "loadgen.lat_p95_ms", percentile(lat, 95))
	res.setValue(perLayer, "loadgen.lat_p99_ms", percentile(lat, 99))
	res.setValue(perLayer, "loadgen.late_ms_p99", percentile(late, 99))
	res.setValue(perLayer, "loadgen.backlog_end", float64(open.backlog))

	setService(res, open, openBatches, closedBatches, before, after)
	served := after.Queries - before.Queries
	setIndex(res, before, after, served)

	if sys.svc.NumShards() > 1 {
		if err := setShard(sys, res, open, closed, before, after, wireBefore, bytesBefore, t); err != nil {
			return err
		}
	}
	if wr != nil {
		if err := setStore(sys, in, wr, cfg, res, t); err != nil {
			return err
		}
	}

	// Layer replays: the stream as it was served, cut into micro-batches
	// of the mean size the service formed under the open loop, against a
	// cache like the service's.
	size := 1
	if len(openBatches) > 0 {
		if size = int(math.Round(float64(len(open.ops)) / float64(len(openBatches)))); size < 1 {
			size = 1
		}
	}
	stream := internalQueries(sys.batches[0])
	if len(stream) > 4096 {
		stream = stream[:4096]
	}
	var micro [][]query.Query
	for i := 0; i < len(stream); i += size {
		j := i + size
		if j > len(stream) {
			j = len(stream)
		}
		micro = append(micro, stream[i:j])
	}
	replayLayers(snap, micro, hcindex.NewCache(hcindex.DefaultCacheBytes), tr).report(res)
	return nil
}

// setService derives the service-layer metrics from the micro-batches
// OnBatch reported and the replies the load generator collected.
func setService(res *result, open *phase, openBatches, closedBatches []hcpath.BatchStats, before, after hcpath.ServiceTotals) {
	var wait []float64
	var enum, sharing float64
	var queries int
	for _, b := range openBatches {
		wait = append(wait, float64(b.WaitNanos)/1e6)
		enum += float64(b.EnumerateNanos) / 1e6
		sharing += b.SharingRatio() * float64(b.Queries)
		queries += b.Queries
	}
	if n := float64(len(openBatches)); n > 0 {
		res.setValue(perLayer, "service.queue_wait_ms_p50", percentile(wait, 50))
		res.setValue(perLayer, "service.queue_wait_ms_p99", percentile(wait, 99))
		res.setValue(perLayer, "service.queries_per_batch", float64(queries)/n)
		res.setValue(perLayer, "service.enumerate_ms_per_batch", enum/n)
		res.setValue(perLayer, "service.sharing_ratio", ratio(sharing, float64(queries)))
		res.setValue(perLayer, "batchenum.enumerate_ms_per_batch", phaseMs(openBatches, timing.Enumeration)/n)
		res.setValue(perLayer, "sharegraph.detect_ms_per_batch", phaseMs(openBatches, timing.IdentifySubquery)/n)
		shared, spliced, paths, groups := 0, int64(0), int64(0), 0
		for _, b := range openBatches {
			shared += b.SharedQueries
			spliced += b.SplicedPaths
			paths += b.Paths
			groups += b.Groups
		}
		res.setValue(perLayer, "sharegraph.shared_per_batch", float64(shared)/n)
		res.setValue(perLayer, "sharegraph.spliced_share", ratio(float64(spliced), float64(paths)))
		res.setValue(perLayer, "cluster.groups_per_query", ratio(float64(groups), float64(queries)))
	}
	if n := len(closedBatches); n > 0 {
		q := 0
		for _, b := range closedBatches {
			q += b.Queries
		}
		res.setValue(perLayer, "service.queries_per_batch_closed", float64(q)/float64(n))
	}
	// Overhead: what a reply cost beyond its micro-batch's queue wait and
	// engine time — submit, future, reply conversion. BatchStats.WaitNanos
	// is the wait of the batch's first query, so the sum is taken on that
	// query: of the replies that carry one batch's stats, the one that
	// waited longest.
	type batchKey struct {
		wait, enum int64
		queries    int
	}
	longest := map[batchKey]time.Duration{}
	for _, op := range open.ops {
		if op.ok {
			k := batchKey{op.batch.WaitNanos, op.batch.EnumerateNanos, op.batch.Queries}
			if d := op.done - op.sent; d > longest[k] {
				longest[k] = d
			}
		}
	}
	var over float64
	for k, d := range longest {
		over += ms(d) - float64(k.wait+k.enum)/1e6
	}
	if n := len(longest); n > 0 {
		res.setValue(perLayer, "service.overhead_ms_per_query", over/float64(n))
	}
	res.setValue(perLayer, "service.shed", float64(after.Shed-before.Shed))
	res.setValue(perLayer, "service.truncated", float64(after.Truncated-before.Truncated))
}

func phaseMs(batches []hcpath.BatchStats, p timing.Phase) float64 {
	var d time.Duration
	for i := range batches {
		d += batches[i].Phases.Get(p)
	}
	return ms(d)
}

// setIndex reads the cross-batch index cache through the service's
// totals.
func setIndex(res *result, before, after hcpath.ServiceTotals, served int64) {
	hits, misses := after.IndexHits-before.IndexHits, after.IndexMisses-before.IndexMisses
	res.setValue(perLayer, "hcindex.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	res.setValue(perLayer, "hcindex.widened_share", ratio(float64(after.IndexWidened-before.IndexWidened), float64(hits)))
	res.setValue(perLayer, "hcindex.evictions_per_kq", ratio(float64(after.IndexEvictions-before.IndexEvictions)*1000, float64(served)))
	res.setValue(perLayer, "hcindex.cache_mb", float64(after.IndexCacheBytes)/(1<<20))
}

// setShard reads the coordinator and, for the wire deployment, the
// transport, and compares throughput against a single-process service
// on the same stream.
func setShard(sys *system, res *result, open, closed *phase, before, after hcpath.ServiceTotals, wireBefore []hcpath.WireStats, bytesBefore int64, t *tally) error {
	rt := sys.svc.Sharding()
	routed := float64(rt.SingleShard + rt.CrossShard + rt.CrossShed)
	res.setValue(perLayer, "shard.cross_share", ratio(float64(rt.CrossShard+rt.CrossShed), routed))
	res.setValue(perLayer, "shard.epoch_retries", float64(rt.EpochRetries))
	res.setValue(perLayer, "shard.cross_shed", float64(rt.CrossShed))
	var most, sum float64
	for _, wt := range sys.svc.ShardTotals() {
		q := float64(wt.Queries)
		sum += q
		most = math.Max(most, q)
	}
	res.setValue(perLayer, "shard.worker_imbalance", ratio(most*float64(sys.svc.NumShards()), sum))

	// Coordinator overhead: mean reply latency minus the mean time a
	// batch (or cross-shard join, counted as a batch of one) spent
	// waiting and enumerating on the worker side.
	var lat float64
	n := 0
	for _, op := range append(open.ops, closed.ops...) {
		if op.ok {
			lat += ms(op.done - op.sent)
			n++
		}
	}
	if b := after.Batches - before.Batches; b > 0 && n > 0 {
		worker := float64(after.WaitNanos-before.WaitNanos+after.EnumerateNanos-before.EnumerateNanos) / 1e6 / float64(b)
		res.setValue(perLayer, "shard.coord_overhead_ms_per_query", lat/float64(n)-worker)
	}

	if wire := sys.svc.Wire(); wire != nil {
		var rpcs, flushes int64
		for i, ws := range wire {
			rpcs += ws.RPCs - wireBefore[i].RPCs
			flushes += ws.Flushes - wireBefore[i].Flushes
		}
		asked := float64(len(open.ops) + len(closed.ops))
		res.setValue(perLayer, "wire.rpcs_per_query", ratio(float64(rpcs), asked))
		res.setValue(perLayer, "wire.rpcs_per_flush", ratio(float64(rpcs), float64(flushes)))
		res.setValue(perLayer, "wire.bytes_per_query", ratio(float64(sys.wireBytes()-bytesBefore), asked))
		res.setValue(perLayer, "wire.connect_ms", ms(sys.connectTime))
		// Totals asks each worker for its stats, one small RPC after the
		// other with no work behind it: the closest thing to a ping the
		// public API has.
		var rtt []float64
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			sys.svc.Totals()
			rtt = append(rtt, float64(time.Since(t0))/1e3/float64(len(wire)))
		}
		res.setValue(perLayer, "wire.rtt_us_p50", percentile(rtt, 50))
	}

	// Base for vs_single_ratio: the same stream, closed loop, against the
	// plain single-process service, for as long as this deployment's
	// closed phase ran.
	base := &system{spec: sys.spec, g: sys.g, batches: sys.batches, svc: hcpath.NewService(sys.g, nil)}
	defer base.close()
	if err := warmUp(base, t); err != nil {
		return err
	}
	single := closedLoop(base, closed.length, sys.spec.WarmupOps, t, nil)
	res.setValue(perLayer, "shard.vs_single_ratio", ratio(
		overSlices(closed.slices(byDone), (*slice).opsPerSecond).Median,
		overSlices(single.slices(byDone), (*slice).opsPerSecond).Median))
	return nil
}

// setStore finishes the churn workload (state and restart checks) and
// replays its update stream into bare stores to separate the cost of
// applying an update from the cost of logging it.
func setStore(sys *system, in *inputs, wr *writer, cfg runConfig, res *result, t *tally) error {
	end, err := finishChurn(sys, wr, t)
	if err != nil {
		return err
	}
	res.setValue(perLayer, "store.update_p50_ms", percentile(wr.lat, 50))
	res.setValue(perLayer, "store.restart_s", end.restart.Seconds())
	res.setValue(perLayer, "store.compactions", float64(end.totals.Compactions))
	res.setValue(perLayer, "store.checkpoints", float64(end.totals.Checkpoints))

	blocks := sys.updates[:wr.applied]
	if len(blocks) == 0 {
		return nil
	}
	lower := func(es []hcpath.Edge) []graph.Edge {
		out := make([]graph.Edge, len(es))
		for i, e := range es {
			out[i] = graph.Edge{Src: e.Src, Dst: e.Dst}
		}
		return out
	}
	replay := func(st *store.Store) (time.Duration, int, error) {
		var total time.Duration
		maxDelta := 0
		for _, blk := range blocks {
			adds, dels := lower(blk.Adds), lower(blk.Dels)
			t0 := time.Now()
			snap, err := st.ApplyUpdates(adds, dels)
			total += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			if d := snap.DeltaEdges(); d > maxDelta {
				maxDelta = d
			}
		}
		return total, maxDelta, nil
	}

	mem := store.New(in.g, store.Options{})
	memTime, maxDelta, err := replay(mem)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.OutDir, sys.spec.Name+".replay")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	t0 := time.Now()
	dur, err := store.Open(dir, in.g, store.DurableOptions{})
	if err != nil {
		return err
	}
	res.setValue(perLayer, "store.open_ms", ms(time.Since(t0)))
	durTime, _, err := replay(dur)
	if err != nil {
		dur.Close()
		return err
	}
	if err := dur.Close(); err != nil {
		return err
	}
	written, err := dirBytes(dir)
	if err != nil {
		return err
	}
	changes := 0
	for _, blk := range blocks {
		changes += len(blk.Adds) + len(blk.Dels)
	}
	n := float64(len(blocks))
	res.setValue(perLayer, "store.apply_ms_per_update", ms(memTime)/n)
	res.setValue(perLayer, "store.wal_ms_per_update", ms(durTime-memTime)/n)
	res.setValue(perLayer, "store.wal_bytes_per_edge", ratio(float64(written), float64(changes)))
	res.setValue(perLayer, "store.delta_edges_max", float64(maxDelta))
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func init() {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			panic(fmt.Sprintf("benchmark: metric %s registered twice", d.Name))
		}
		seen[d.Name] = true
	}
}
