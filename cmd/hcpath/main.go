// Command hcpath answers batches of hop-constrained s-t simple path
// queries on a graph file:
//
//	hcpath -graph g.txt -queries q.txt            # print every path
//	hcpath -graph g.bin -queries q.txt -count     # counts only
//	hcpath -graph g.txt -query 0,11,5             # one ad-hoc query
//
// The batch runs on every core, so a listing interleaves the lines of
// different queries; each line names its query, and one query's lines
// keep their order.
//
// Replay mode drives the micro-batching query service instead of one
// offline batch: the query file is replayed from -clients concurrent
// goroutines, the service coalesces whatever is waiting when a batch
// slot comes free (at most -maxbatch queries, held at most -maxwait),
// and per-batch sharing statistics plus the end-to-end throughput are
// reported:
//
//	hcpath -graph g.txt -queries q.txt -replay -clients 32
//
// Update-replay mode drives the service against a live graph: an
// updates file interleaves mutations with queries, consecutive queries
// are submitted concurrently (so they micro-batch), and each mutation
// block is applied with ApplyUpdates before the next wave — later
// queries see the updated graph, earlier ones their original snapshot:
//
//	hcpath -graph g.txt -updates ops.txt
//
// The updates file holds one operation per line: "add u v" ("a u v"),
// "del u v" ("d u v"), or "query s t k" ("q s t k"); '#' comments.
//
// Serve mode runs one shard worker of a multi-process deployment: the
// process owns shard i of N over its replica of the graph and answers
// a coordinator's wire RPCs over TCP until SIGINT/SIGTERM. Connect
// mode is that coordinator: it dials one worker address per shard and
// drives replay or update-replay against the cluster, with results
// identical to the single-process service:
//
//	hcpath -graph g.txt -serve -shard 0/2 -listen :7070   # worker 0
//	hcpath -graph g.txt -serve -shard 1/2 -listen :7071   # worker 1
//	hcpath -connect localhost:7070,localhost:7071 -queries q.txt -replay
//	hcpath -connect localhost:7070,localhost:7071 -updates ops.txt
//
// A worker given -datadir owns that directory as its durable store
// (WAL + snapshots) — give each worker its own; restarting the worker
// warm-restarts from disk and -graph may then be omitted.
//
// Every mode takes -debugaddr: it serves net/http/pprof under
// /debug/pprof/ and the mode's lifetime totals as JSON at
// /debug/totals while the process runs:
//
//	hcpath -graph g.txt -queries q.txt -replay -debugaddr localhost:6060
//
// The graph file is an edge list ("src dst" per line, '#' comments) or
// the repository's binary format (.bin). The query file holds one
// "s t k" triple per line. The engine defaults to BatchEnum+, the
// paper's headline algorithm; -algo selects a baseline.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	hcpath "repro"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file (edge list or .bin)")
		queryPath = flag.String("queries", "", "query file: one 's t k' per line")
		oneQuery  = flag.String("query", "", "single query as 's,t,k'")
		algoName  = flag.String("algo", "batch+", "algorithm: batch+, batch, basic+, basic")
		gamma     = flag.Float64("gamma", 0.5, "clustering threshold γ")
		countOnly = flag.Bool("count", false, "print per-query counts instead of paths")
		maxHops   = flag.Int("maxhops", 15, "maximum accepted hop constraint")
		limit     = flag.Int64("limit", 0, "max result paths per query (0 = unlimited)")
		timeout   = flag.Duration("timeout", 0, "total enumeration deadline; replay: per-batch QueryTimeout (0 = none)")

		replay      = flag.Bool("replay", false, "replay queries through the micro-batching service")
		updates     = flag.String("updates", "", "update-replay: file interleaving add/del/query operations")
		compact     = flag.Int("compactafter", 0, "update-replay: fold the delta after this many edge changes (0 = default, <0 = never)")
		dataDir     = flag.String("datadir", "", "update-replay: durable store directory (WAL + snapshots); an existing directory warm-restarts and resumes the replay")
		fsyncMode   = flag.String("fsync", "always", "update-replay with -datadir: WAL durability — always, interval, or off")
		crashAfter  = flag.Int("crashafter", 0, "update-replay: exit without cleanup after applying this many update blocks, simulating a crash (0 = never)")
		clients     = flag.Int("clients", 16, "replay: concurrent client goroutines")
		maxBatch    = flag.Int("maxbatch", 64, "replay: max queries coalesced per batch")
		maxWait     = flag.Duration("maxwait", 2*time.Millisecond, "replay: longest a formed batch is held while every core is busy (with a core idle it leaves at once)")
		cacheMB     = flag.Int("cachemb", 64, "replay: cross-batch index cache budget in MiB (0 disables)")
		maxInFlight = flag.Int("maxinflight", 0, "replay/update-replay: hard bound on concurrent batches, which then wait for a slot even past -maxwait (0 = unlimited)")
		maxQueued   = flag.Int("maxqueued", 0, "replay/update-replay: max admitted-but-undispatched queries; excess shed with ErrOverloaded (0 = unlimited)")
		shards      = flag.Int("shards", 0, "replay/update-replay: shard workers in the in-process sharded deployment (0 or 1 = unsharded)")
		serve       = flag.Bool("serve", false, "run one shard worker serving the wire protocol (needs -shard and -listen)")
		shardSpec   = flag.String("shard", "", "serve: this worker's identity as 'i/N' (shard i of N)")
		listenAddr  = flag.String("listen", "", "serve: TCP address to listen on, e.g. :7070")
		connectTo   = flag.String("connect", "", "replay/update-replay against remote workers: comma-separated addresses, one per shard in shard order")
		verbose     = flag.Bool("v", false, "replay: print every batch's stats and every reply")
		debugAddr   = flag.String("debugaddr", "", "serve net/http/pprof and the mode's totals as JSON (/debug/totals) on this address, e.g. localhost:6060")
	)
	flag.Parse()

	if *dataDir != "" && *updates == "" && !*serve {
		fail("-datadir requires -updates or -serve (the durable modes)")
	}
	if *serve {
		if *shardSpec == "" || *listenAddr == "" {
			fail("-serve needs -shard i/N and -listen addr")
		}
		if *replay || *updates != "" || *queryPath != "" || *oneQuery != "" || *connectTo != "" || *shards > 1 {
			fail("-serve runs a worker; it takes no queries, updates, -connect, or -shards")
		}
	} else if *shardSpec != "" || *listenAddr != "" {
		fail("-shard and -listen only apply to -serve")
	}
	if *connectTo != "" {
		if *shards > 1 {
			fail("-connect derives the shard count from the address list; drop -shards")
		}
		// Every query runs on a worker, under that worker's flags and on
		// its store; a coordinator given one would silently ignore it.
		var owned []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "datadir", "limit", "timeout", "maxbatch", "maxwait", "maxinflight", "maxqueued", "cachemb", "compactafter", "algo", "gamma":
				owned = append(owned, "-"+f.Name)
			}
		})
		if len(owned) > 0 {
			fail("-connect with %s: every query runs on a worker, so these belong to the workers (pass them to -serve)", strings.Join(owned, " "))
		}
		if !*replay && *updates == "" {
			fail("-connect requires -replay or -updates (the cluster serves live traffic)")
		}
	}
	if *shards > 1 && !*replay && *updates == "" {
		fail("-shards requires -replay or -updates (the sharded deployment serves live traffic)")
	}
	// With -datadir an existing data directory is the graph source; a
	// -graph only seeds an empty directory. With -connect the graph
	// lives in the worker processes.
	var g *hcpath.Graph
	if *graphPath != "" {
		var err error
		g, err = hcpath.LoadGraph(*graphPath)
		if err != nil {
			fail("load graph: %v", err)
		}
	} else if *dataDir == "" && *connectTo == "" {
		fail("missing -graph")
	}
	fsync, err := hcpath.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		fail("-fsync: %v", err)
	}
	algo, err := parseAlgo(*algoName)
	if err != nil {
		fail("%v", err)
	}
	cacheBytes := int64(-1) // 0 MiB: caching off
	if *cacheMB > 0 {
		cacheBytes = int64(*cacheMB) << 20
	}
	so := hcpath.ServiceOptions{
		Options: hcpath.Options{
			Algorithm: algo,
			Gamma:     *gamma,
			MaxHops:   *maxHops,
			Limit:     *limit,
		},
		IndexCacheBytes: cacheBytes,
		MaxBatch:        *maxBatch,
		MaxWait:         *maxWait,
		QueryTimeout:    *timeout,
		CompactAfter:    *compact,
		MaxInFlight:     *maxInFlight,
		MaxQueued:       *maxQueued,
		Shards:          *shards,
		DataDir:         *dataDir,
		Fsync:           fsync,
	}

	if *debugAddr != "" {
		addr, err := serveDebug(*debugAddr)
		if err != nil {
			fail("-debugaddr: %v", err)
		}
		fmt.Fprintf(os.Stderr, "debug: pprof on http://%s/debug/pprof/, totals on http://%s/debug/totals\n", addr, addr)
	}

	if *serve {
		runServe(g, so, *shardSpec, *listenAddr)
		return
	}

	var cluster []string
	if *connectTo != "" {
		for _, a := range strings.Split(*connectTo, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cluster = append(cluster, a)
			}
		}
		if len(cluster) == 0 {
			fail("-connect: no worker addresses")
		}
	}

	if *updates != "" {
		switch {
		case len(cluster) > 0:
			fmt.Fprintf(os.Stderr, "graph: served by %d remote workers\n", len(cluster))
		case g != nil:
			fmt.Fprintf(os.Stderr, "graph: %d vertices, %d edges; %s\n",
				g.NumVertices(), g.NumEdges(), algo)
		default:
			fmt.Fprintf(os.Stderr, "graph: warm restart from %s; %s\n", *dataDir, algo)
		}
		runUpdateReplay(g, *updates, so, cluster, *verbose, *crashAfter)
		return
	}

	qs, err := loadQueries(*queryPath, *oneQuery)
	if err != nil {
		fail("load queries: %v", err)
	}

	if len(cluster) > 0 {
		fmt.Fprintf(os.Stderr, "graph: served by %d remote workers; %d queries\n",
			len(cluster), len(qs))
	} else {
		fmt.Fprintf(os.Stderr, "graph: %d vertices, %d edges; %d queries; %s\n",
			g.NumVertices(), g.NumEdges(), len(qs), algo)
	}

	if *replay {
		runReplay(g, qs, so, *clients, cluster, *verbose)
		return
	}
	eng := hcpath.NewEngine(g, &so.Options)
	debug.set("offline", nil) // an offline run's Stats exist once it ends

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	t0 := time.Now()
	if *countOnly {
		counts, st, err := eng.CountContext(ctx, qs)
		if err != nil && !cancellation(err) {
			fail("%v", err)
		}
		debug.set("offline", func() any { return st })
		for i, c := range counts {
			fmt.Printf("q%d(s=%d,t=%d,k=%d): %d paths\n", i, qs[i].S, qs[i].T, qs[i].K, c)
		}
		reportPartial(st, err)
		report(st, time.Since(t0))
		return
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	st, err := eng.StreamContext(ctx, qs, func(i int, p hcpath.Path) {
		fmt.Fprintf(w, "q%d: %s\n", i, p)
	})
	if err != nil && !cancellation(err) {
		fail("%v", err)
	}
	w.Flush()
	debug.set("offline", func() any { return st })
	reportPartial(st, err)
	report(st, time.Since(t0))
}

// cancellation distinguishes a -timeout (or interrupt) cutting a run
// short — partial results worth printing — from a validation or load
// error, which aborts.
func cancellation(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// reportPartial warns on stderr when the run was cut short — cancelled
// by -timeout or truncated by -limit — so a partial listing is never
// mistaken for the full result set.
func reportPartial(st hcpath.Stats, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hcpath: enumeration stopped early: %v (%d queries truncated)\n", err, st.Truncated)
	} else if st.Truncated > 0 {
		fmt.Fprintf(os.Stderr, "hcpath: %d queries truncated at -limit\n", st.Truncated)
	}
}

// parseShardSpec parses a -shard identity "i/N".
func parseShardSpec(spec string) (idx, n int, err error) {
	i, rest, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard wants 'i/N', got %q", spec)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(i))
	n, err2 := strconv.Atoi(strings.TrimSpace(rest))
	if err1 != nil || err2 != nil || n < 1 || idx < 0 || idx >= n {
		return 0, 0, fmt.Errorf("-shard wants 'i/N' with 0 ≤ i < N, got %q", spec)
	}
	return idx, n, nil
}

// runServe runs one shard worker: a full micro-batching service over
// this process's replica of the graph, answering coordinator RPCs on
// the wire protocol until SIGINT/SIGTERM shuts it down cleanly
// (flushing the durable store when -datadir is set).
func runServe(g *hcpath.Graph, so hcpath.ServiceOptions, spec, listen string) {
	idx, n, err := parseShardSpec(spec)
	if err != nil {
		fail("%v", err)
	}
	srv, err := hcpath.NewShardServer(g, &so, idx, n)
	if err != nil {
		fail("start worker: %v", err)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fail("listen: %v", err)
	}
	debug.set("serve", func() any { return srv.Totals() })
	st := srv.State()
	fmt.Fprintf(os.Stderr, "serving: shard %d/%d on %s (epoch %d, %d vertices, %d edges)\n",
		idx, n, ln.Addr(), st.Epoch, st.NumVertices, st.NumEdges)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "serving: caught %v, shutting down\n", s)
		if err := srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hcpath: close worker: %v\n", err)
			os.Exit(1)
		}
	}()
	if err := srv.Serve(ln); err != nil {
		fail("serve: %v", err)
	}
	tot := srv.Totals()
	fmt.Fprintf(os.Stderr, "served: %d queries in %d batches, %d paths; final epoch %d\n",
		tot.Queries, tot.Batches, tot.Paths, tot.Epoch)
}

// replayService builds the Service a replay drives: a connection to the
// remote cluster when addrs is set, an in-process (possibly sharded)
// service over g otherwise.
func replayService(g *hcpath.Graph, so *hcpath.ServiceOptions, addrs []string) *hcpath.Service {
	if len(addrs) == 0 {
		return hcpath.NewService(g, so)
	}
	svc, err := hcpath.ConnectService(context.Background(), addrs, so)
	if err != nil {
		fail("connect: %v", err)
	}
	fmt.Fprintf(os.Stderr, "cluster: %d remote workers (%s)\n",
		svc.NumShards(), strings.Join(addrs, ", "))
	return svc
}

// runReplay pushes the query file through a Service from concurrent
// client goroutines (client i replays queries i, i+clients, …) in count
// mode, then reports batching and throughput statistics. Clients back
// off and retry when admission control sheds them, the behaviour
// ErrOverloaded asks real callers for.
func runReplay(g *hcpath.Graph, qs []hcpath.Query, so hcpath.ServiceOptions, clients int, connect []string, verbose bool) {
	if verbose {
		so.OnBatch = func(b hcpath.BatchStats) {
			fmt.Fprintf(os.Stderr,
				"batch: %d queries, %d groups, sharing %.2f, %d paths, wait %v, enumerate %v\n",
				b.Queries, b.Groups, b.SharingRatio(), b.Paths,
				time.Duration(b.WaitNanos).Round(time.Microsecond),
				time.Duration(b.EnumerateNanos).Round(time.Microsecond))
		}
	}
	svc := replayService(g, &so, connect)
	debug.set("replay", serviceTotals(svc))
	if clients < 1 {
		clients = 1
	}
	switch n := svc.NumShards(); {
	case len(connect) > 0:
		// Batching is each worker's own, set by its -serve flags.
		fmt.Fprintf(os.Stderr, "replay: %d clients, %d remote workers\n", clients, n)
	case n > 1:
		fmt.Fprintf(os.Stderr, "replay: %d clients, %d shard workers, batches of ≤%d held ≤%v behind busy slots\n",
			clients, n, so.MaxBatch, so.MaxWait)
	default:
		fmt.Fprintf(os.Stderr, "replay: %d clients, batches of ≤%d held ≤%v behind busy slots\n",
			clients, so.MaxBatch, so.MaxWait)
	}

	var failed, truncated, backoffs atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			caller := fmt.Sprintf("client-%d", c)
			for i := c; i < len(qs); i += clients {
				n, err := countRetrying(svc, caller, qs[i], &backoffs)
				switch {
				case err == nil:
					if verbose {
						fmt.Fprintf(os.Stderr, "reply: query %d: %d paths\n", i, n)
					}
				case errors.Is(err, hcpath.ErrLimitReached) || errors.Is(err, context.DeadlineExceeded):
					truncated.Add(1) // partial count delivered, not a failure
				default:
					fmt.Fprintf(os.Stderr, "hcpath: query %d: %v\n", i, err)
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	// Read the merged totals before Close: on a remote deployment Close
	// drops the worker connections the stats plane reads through.
	tot := svc.Totals()
	shLine, wLine := shardLine(svc), wireLine(svc)
	debug.set("replay", func() any { return tot })
	svc.Close()
	fmt.Printf("replayed %d queries in %v (%.0f q/s), %d failed, %d truncated (%d deadline batches)\n",
		tot.Queries, elapsed.Round(time.Microsecond),
		float64(tot.Queries)/elapsed.Seconds(), failed.Load(), truncated.Load(), tot.DeadlineBatches)
	fmt.Printf("%d batches (largest %d, mean %.1f queries/batch), %d paths\n",
		tot.Batches, tot.LargestBatch,
		float64(tot.Queries)/float64(max(tot.Batches, 1)), tot.Paths)
	fmt.Printf("%d groups, %d shared sub-queries, %d spliced paths; mean wait %v, mean enumerate %v\n",
		tot.Groups, tot.SharedQueries, tot.SplicedPaths,
		(time.Duration(tot.WaitNanos) / time.Duration(max(tot.Batches, 1))).Round(time.Microsecond),
		(time.Duration(tot.EnumerateNanos) / time.Duration(max(tot.Batches, 1))).Round(time.Microsecond))
	if tot.Shed > 0 {
		fmt.Printf("admission: %d shed, %d backoffs\n", tot.Shed, backoffs.Load())
	}
	fmt.Println(cacheLine(tot))
	if shLine != "" {
		fmt.Println(shLine)
	}
	if wLine != "" {
		fmt.Println(wLine)
	}
}

// countRetrying counts q's paths as caller and, while admission control
// sheds it, backs off and retries — the behaviour ErrOverloaded asks
// real callers for: jittered capped backoff, honouring a remote worker's
// retry-after hint, giving up once the policy's total budget is spent.
// Every retry is counted in backoffs.
func countRetrying(svc *hcpath.Service, caller string, q hcpath.Query, backoffs *atomic.Int64) (int64, error) {
	var retry *hcpath.BackoffSleeper // fresh budget per query
	for {
		n, _, err := svc.CountFrom(context.Background(), caller, q)
		if !errors.Is(err, hcpath.ErrOverloaded) {
			return n, err
		}
		backoffs.Add(1)
		if retry == nil {
			retry = hcpath.Backoff{}.Start()
		}
		var hint time.Duration
		var oe *hcpath.OverloadedError
		if errors.As(err, &oe) {
			hint = oe.RetryAfter
		}
		if serr := retry.Sleep(context.Background(), hint); serr != nil {
			return n, fmt.Errorf("still overloaded after %d retries: %w", retry.Attempts(), serr)
		}
	}
}

// wireLine renders a remote deployment's transport summary — per-worker
// request frames and socket flushes, and the overall write-coalescing
// factor; empty on any in-process service.
func wireLine(svc *hcpath.Service) string {
	ws := svc.Wire()
	if len(ws) == 0 {
		return ""
	}
	var rpcs, flushes int64
	var b strings.Builder
	b.WriteString("wire:")
	for _, w := range ws {
		fmt.Fprintf(&b, " %s %d rpcs/%d flushes;", w.Addr, w.RPCs, w.Flushes)
		rpcs += w.RPCs
		flushes += w.Flushes
	}
	fmt.Fprintf(&b, " coalescing %.1f rpcs/flush", float64(rpcs)/float64(max(flushes, 1)))
	return b.String()
}

// shardLine renders the sharded deployment's routing summary; empty on
// an unsharded service.
func shardLine(svc *hcpath.Service) string {
	rs := svc.Sharding()
	if rs.Shards <= 1 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shards: %d workers, %d single-shard, %d cross-shard, %d cross-shard shed; queries/shard:",
		rs.Shards, rs.SingleShard, rs.CrossShard, rs.CrossShed)
	for _, t := range svc.ShardTotals() {
		fmt.Fprintf(&b, " %d", t.Queries)
	}
	return b.String()
}

// op is one line of an update-replay file: either a mutation or a query.
type op struct {
	add, del bool
	edge     hcpath.Edge
	q        hcpath.Query
}

// loadOps parses an update-replay file: "add|a u v", "del|d u v",
// "query|q s t k", '#' comments.
func loadOps(path string) ([]op, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ops []op
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		parse := func(want int) ([]uint64, error) {
			if len(fields) != want+1 {
				return nil, fmt.Errorf("%s:%d: want %d operands, got %q", path, line, want, text)
			}
			vals := make([]uint64, want)
			for i := range vals {
				v, err := strconv.ParseUint(fields[i+1], 10, 32)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: operand %d: %v", path, line, i+1, err)
				}
				vals[i] = v
			}
			return vals, nil
		}
		switch strings.ToLower(fields[0]) {
		case "add", "a", "del", "d":
			vals, err := parse(2)
			if err != nil {
				return nil, err
			}
			mut := op{edge: hcpath.Edge{Src: hcpath.VertexID(vals[0]), Dst: hcpath.VertexID(vals[1])}}
			if fields[0][0] == 'a' {
				mut.add = true
			} else {
				mut.del = true
			}
			ops = append(ops, mut)
		case "query", "q":
			vals, err := parse(3)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op{q: hcpath.Query{
				S: hcpath.VertexID(vals[0]), T: hcpath.VertexID(vals[1]), K: int(vals[2])}})
		default:
			return nil, fmt.Errorf("%s:%d: unknown op %q (want add/del/query)", path, line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("%s: no operations", path)
	}
	return ops, nil
}

// runUpdateReplay drives the service against a live graph: consecutive
// queries form a wave submitted concurrently (so they micro-batch);
// consecutive mutations form a block applied with one ApplyUpdates.
// Waves complete before the next mutation block applies, so every query
// deterministically sees the graph version current when its wave began.
//
// With a -datadir, every applied block is one WAL record, so on a warm
// restart the store's WALRecords count is exactly the replay cursor:
// the first WALRecords blocks of the file (and the queries before them,
// answered pre-crash) are skipped and the replay resumes where the
// previous process stopped — surviving even a kill -9 mid-run.
func runUpdateReplay(g *hcpath.Graph, path string, so hcpath.ServiceOptions, connect []string, verbose bool, crashAfter int) {
	ops, err := loadOps(path)
	if err != nil {
		fail("load updates: %v", err)
	}
	var svc *hcpath.Service
	if len(connect) > 0 {
		svc = replayService(nil, &so, connect)
	} else if svc, err = hcpath.OpenService(g, &so); err != nil {
		fail("open service: %v", err)
	}
	debug.set("updates", serviceTotals(svc))
	// Durable deployments — a local -datadir, or remote workers that
	// warm-restarted from theirs — report the update blocks already in
	// the recovered state; the replay resumes past them.
	var skip int64
	if tot := svc.Totals(); tot.WALRecords > 0 {
		skip = tot.WALRecords
		st := svc.State()
		fmt.Fprintf(os.Stderr, "recovered: epoch %d, %d vertices, %d edges, %d update blocks already applied\n",
			st.Epoch, st.NumVertices, st.NumEdges, skip)
	}

	var queries, failed, truncated, updates int64
	var backoffs atomic.Int64
	var skipped, applied int64 // update blocks: caught up vs applied this run
	t0 := time.Now()

	var wave sync.WaitGroup
	flushWave := func() { wave.Wait() }
	var adds, dels []hcpath.Edge
	pendingAdd := map[hcpath.Edge]bool{}
	pendingDel := map[hcpath.Edge]bool{}
	discardBlock := func() {
		adds, dels = nil, nil
		clear(pendingAdd)
		clear(pendingDel)
	}
	flushUpdates := func() {
		if len(adds) == 0 && len(dels) == 0 {
			return
		}
		if skipped < skip {
			// This block is already in the recovered state; consume it
			// without re-applying.
			skipped++
			discardBlock()
			return
		}
		epoch, err := svc.ApplyUpdates(adds, dels)
		if err != nil {
			fail("apply updates: %v", err)
		}
		applied++
		updates += int64(len(adds) + len(dels))
		if verbose {
			fmt.Fprintf(os.Stderr, "applied %d adds, %d dels → epoch %d\n", len(adds), len(dels), epoch)
		}
		discardBlock()
		if crashAfter > 0 && applied >= int64(crashAfter) {
			// Simulated crash: no Close, no WAL drain beyond what the
			// fsync policy already guaranteed.
			fmt.Fprintf(os.Stderr, "crash: exiting after %d applied update blocks at epoch %d\n", applied, epoch)
			os.Exit(137)
		}
	}

	for _, o := range ops {
		switch {
		case o.add:
			flushWave()
			// ApplyUpdates applies a block's dels before its adds, so an
			// edge already pending deletion must flush first to keep the
			// file's sequential semantics.
			if pendingDel[o.edge] {
				flushUpdates()
			}
			adds = append(adds, o.edge)
			pendingAdd[o.edge] = true
		case o.del:
			flushWave()
			if pendingAdd[o.edge] {
				flushUpdates()
			}
			dels = append(dels, o.edge)
			pendingDel[o.edge] = true
		default:
			flushUpdates()
			if skipped < skip {
				continue // answered by the previous run, before the crash
			}
			queries++
			wave.Add(1)
			waveEpoch := svc.Epoch()
			go func(q hcpath.Query, i int64) {
				defer wave.Done()
				switch count, err := countRetrying(svc, "", q, &backoffs); {
				case err == nil:
					if verbose {
						fmt.Fprintf(os.Stderr, "q(s=%d,t=%d,k=%d) @epoch %d: %d paths\n",
							q.S, q.T, q.K, waveEpoch, count)
					}
				case errors.Is(err, hcpath.ErrLimitReached) || errors.Is(err, context.DeadlineExceeded):
					atomic.AddInt64(&truncated, 1)
				default:
					fmt.Fprintf(os.Stderr, "hcpath: query %d: %v\n", i, err)
					atomic.AddInt64(&failed, 1)
				}
			}(o.q, queries)
		}
	}
	flushWave()
	flushUpdates()
	elapsed := time.Since(t0)

	tot := svc.Totals()
	debug.set("updates", func() any { return tot })
	fmt.Printf("replayed %d queries and %d updates in %v, %d failed, %d truncated\n",
		queries, updates, elapsed.Round(time.Microsecond), failed, truncated)
	fmt.Printf("epoch %d (%d effective edge changes, %d compactions, %d delta edges pending), %d batches, %d paths\n",
		tot.Epoch, tot.UpdatesApplied, tot.Compactions, tot.DeltaEdges, tot.Batches, tot.Paths)
	if tot.Shed > 0 {
		fmt.Printf("admission: %d shed, %d backoffs\n", tot.Shed, backoffs.Load())
	}
	fmt.Println(cacheLine(tot))
	if line := shardLine(svc); line != "" {
		fmt.Println(line)
	}
	if line := wireLine(svc); line != "" {
		fmt.Println(line)
	}
	st := svc.State()
	if err := svc.Close(); err != nil {
		fail("close service: %v", err)
	}
	if so.DataDir != "" || tot.WALRecords > 0 {
		fmt.Printf("wal: %d records, %d checkpoints, snapshot epoch %d\n",
			tot.WALRecords, tot.Checkpoints, tot.SnapshotEpoch)
	}
	if so.DataDir != "" || len(connect) > 0 {
		fmt.Printf("state: epoch %d, n %d, m %d, crc %08x\n",
			st.Epoch, st.NumVertices, st.NumEdges, st.Checksum)
	}
}

// cacheLine renders the replay report's index-cache summary from the
// service's lifetime totals.
func cacheLine(tot hcpath.ServiceTotals) string {
	if tot.IndexHits+tot.IndexMisses == 0 {
		return "index cache: no probes"
	}
	return fmt.Sprintf("index cache: %.1f%% hit ratio (%d hits, %d misses, %d widened), %d evictions, %.1f MiB",
		100*tot.IndexHitRatio(), tot.IndexHits, tot.IndexMisses, tot.IndexWidened,
		tot.IndexEvictions, float64(tot.IndexCacheBytes)/(1<<20))
}

func report(st hcpath.Stats, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr,
		"done in %v (index %v, cluster %v, detect %v, enumerate %v); %d groups, %d shared sub-queries, %d spliced paths\n",
		elapsed.Round(time.Microsecond),
		time.Duration(st.IndexNanos).Round(time.Microsecond),
		time.Duration(st.ClusterNanos).Round(time.Microsecond),
		time.Duration(st.DetectNanos).Round(time.Microsecond),
		time.Duration(st.EnumerateNanos).Round(time.Microsecond),
		st.Groups, st.SharedQueries, st.SplicedPaths)
}

func parseAlgo(name string) (hcpath.Algorithm, error) {
	switch strings.ToLower(name) {
	case "batch+", "batchenum+":
		return hcpath.BatchEnumPlus, nil
	case "batch", "batchenum":
		return hcpath.BatchEnum, nil
	case "basic+", "basicenum+":
		return hcpath.BasicEnumPlus, nil
	case "basic", "basicenum":
		return hcpath.BasicEnum, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want batch+, batch, basic+ or basic)", name)
}

func loadQueries(path, one string) ([]hcpath.Query, error) {
	if one != "" {
		parts := strings.Split(one, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("-query wants 's,t,k', got %q", one)
		}
		vals := make([]int, 3)
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("-query field %d: %v", i, err)
			}
			vals[i] = v
		}
		return []hcpath.Query{{S: hcpath.VertexID(vals[0]), T: hcpath.VertexID(vals[1]), K: vals[2]}}, nil
	}
	if path == "" {
		return nil, fmt.Errorf("need -queries or -query")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var qs []hcpath.Query
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want 's t k', got %q", path, line, text)
		}
		s, err1 := strconv.ParseUint(fields[0], 10, 32)
		t, err2 := strconv.ParseUint(fields[1], 10, 32)
		k, err3 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%s:%d: malformed query %q", path, line, text)
		}
		qs = append(qs, hcpath.Query{S: hcpath.VertexID(s), T: hcpath.VertexID(t), K: k})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("%s: no queries", path)
	}
	return qs, nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "hcpath: "+format+"\n", args...)
	os.Exit(1)
}
