package main

import "time"

// Traffic shapes and deployments a workload is assembled from.
const (
	trafficSimilar = "similar" // offline batches built around one heavy seed query each
	trafficRandom  = "random"  // offline batches of independent random queries
	trafficHot     = "hot"     // Zipf-popular sources, targets inside their reach
	trafficChurn   = "churn"   // uniform sources beside a live update stream

	deployEngine  = "engine"  // hcpath.NewEngine(g, nil).Count
	deployService = "service" // hcpath.NewService(g, nil)
	deployDurable = "durable" // hcpath.OpenService with a DataDir, FsyncAlways
	deployShards  = "shards"  // ServiceOptions{Shards: 2}
	deployCluster = "cluster" // 2× NewShardServer on loopback + ConnectService
)

// workloadSpec fixes everything about one workload except the seed. The
// sizes are the benchmark's definition: changing one redefines the
// workload and invalidates comparison with earlier readings, so later
// changes leave them alone. RateQPS in particular is frozen at the round
// number nearest a quarter of the closed-loop throughput the workload had
// when the benchmark was defined — not half: the load generator shares
// the sandbox's two CPUs with the program, and at half capacity the box
// runs at ~70% CPU, where latency measures the neighbours (run-to-run
// IQR 15-25%) rather than the program.
type workloadSpec struct {
	Name, Why string
	Traffic   string
	Deploy    string

	Dataset    string  // datasets code
	Scale      float64 // datasets scale factor
	KMin, KMax int

	// Offline workloads: Batches batches of BatchSize queries, cycled.
	Batches, BatchSize int
	// TargetPaths is the result-path total every similar batch is built
	// to (see genSimilar); zero for traffic that is not cost-matched.
	TargetPaths int64

	// Serving workloads: a stream of StreamLen queries, cycled; InputOf
	// names the workload whose query file this one reads (the three hot
	// deployments share serve_hot's, byte for byte).
	StreamLen int
	InputOf   string
	HotPool   int     // distinct hot sources
	ZipfS     float64 // Zipf exponent over the pool
	PathsLo   int64   // log-uniform per-query result-size profile
	PathsHi   int64
	// CrossShare is the share of hot queries whose endpoints two shards
	// would own separately; see genHot.
	CrossShare float64
	RateQPS    float64 // open-loop Poisson arrival rate, frozen
	Callers    int     // closed-loop callers (= default MaxBatch)
	WarmupOps  int     // queries (or batches, offline) run before timing

	// Churn: one writer applies a block of UpdateAdds+UpdateDels edge
	// changes every UpdateEvery.
	UpdateAdds, UpdateDels int
	UpdateEvery            time.Duration
}

func (w workloadSpec) offline() bool { return w.Deploy == deployEngine }

// inputName is the workload whose .queries file this workload reads.
func (w workloadSpec) inputName() string {
	if w.InputOf != "" {
		return w.InputOf
	}
	return w.Name
}

// workloads is the benchmark's fixed workload table, in run order.
var workloads = []workloadSpec{
	{
		Name:    "offline_dense_similar",
		Why:     "the paper's headline regime: high-similarity batches on a dense graph, enumeration dominates, sharing wins or loses here",
		Traffic: trafficSimilar, Deploy: deployEngine,
		Dataset: "UK", Scale: 1.0, KMin: 6, KMax: 7,
		Batches: 32, BatchSize: 100, TargetPaths: 600_000, WarmupOps: 4,
	},
	{
		Name:    "offline_sparse_random",
		Why:     "the bypass for sharing: independent queries on a sparse graph, MS-BFS index build dominates, clustering and detection are pure overhead",
		Traffic: trafficRandom, Deploy: deployEngine,
		Dataset: "EP", Scale: 8.0, KMin: 5, KMax: 7,
		Batches: 16, BatchSize: 100, WarmupOps: 4,
	},
	{
		Name:    "serve_hot",
		Why:     "hot-endpoint service traffic whose index working set fits the cache: queue wait, batching, reply allocation and cache lookup do the work",
		Traffic: trafficHot, Deploy: deployService,
		Dataset: "UK", Scale: 1.0, KMin: 4, KMax: 5,
		StreamLen: 16384, HotPool: 256, ZipfS: 1.2, PathsLo: 20, PathsHi: 500, CrossShare: 0.42,
		RateQPS: 3000, Callers: 64, WarmupOps: 2048,
	},
	{
		Name:    "serve_churn",
		Why:     "uniform traffic beside a live update stream on a durable store: every epoch retires the cache, reads run beside WAL writes, compactions and checkpoints",
		Traffic: trafficChurn, Deploy: deployDurable,
		Dataset: "EP", Scale: 8.0, KMin: 5, KMax: 7,
		StreamLen: 2048, RateQPS: 300, Callers: 64, WarmupOps: 512,
		UpdateAdds: 200, UpdateDels: 200, UpdateEvery: 25 * time.Millisecond,
	},
	{
		Name:    "shards_hot",
		Why:     "serve_hot's traffic through the in-process 2-shard coordinator: isolates scatter-gather and coordinator join cost with no wire",
		Traffic: trafficHot, Deploy: deployShards, InputOf: "serve_hot",
		Dataset: "UK", Scale: 1.0, KMin: 4, KMax: 5,
		StreamLen: 16384, HotPool: 256, ZipfS: 1.2, PathsLo: 20, PathsHi: 500, CrossShare: 0.42,
		RateQPS: 6000, Callers: 64, WarmupOps: 2048,
	},
	{
		Name:    "cluster_hot",
		Why:     "serve_hot's traffic through 2 shard servers over loopback TCP: adds frame encode, flush, decode, pipelining and coalescing to shards_hot",
		Traffic: trafficHot, Deploy: deployCluster, InputOf: "serve_hot",
		Dataset: "UK", Scale: 1.0, KMin: 4, KMax: 5,
		StreamLen: 16384, HotPool: 256, ZipfS: 1.2, PathsLo: 20, PathsHi: 500, CrossShare: 0.42,
		RateQPS: 2500, Callers: 64, WarmupOps: 2048,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef names one reported metric. Bound is the share of the
// baseline median an end-to-end metric may worsen by; per-layer metrics
// carry none.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the acceptance driver requires a uniform set), so
// latency is defined for the offline workloads too: there the operation
// a caller waits for is one Engine.Count(batch) call. The bounds are
// three times the widest run-to-run spread (IQR/median over ten seeds)
// any workload showed on the reference sandbox, capped at the 25% the
// acceptance contract allows; README.md has the measured spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"allocs_per_query", "count", "lower", 0.20},
	{"alloc_kb_per_query", "KiB", "lower", 0.20},
	{"rss_peak_mb", "MiB", "lower", 0.20},
}
