package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	hcpath "repro"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/query"
	"repro/internal/workload"
)

// The generators below turn (workload, seed) into input files. The
// graph is the named dataset stand-in and does not depend on the seed;
// the traffic does. Result-set sizes on these graphs are heavy-tailed
// over five decades, so traffic drawn naively makes two seeds differ by
// the luck of a few huge queries. Every generator therefore matches its
// draw to a fixed cost profile: candidates are generated from the seed,
// their exact result counts are computed with the no-sharing BasicEnum
// engine (the same counts later serve as the correctness gate's answer
// key), and queries are picked so the profile — per-batch path total
// offline, per-query result-size distribution when serving — is the
// same for every seed while the vertices are not.

// qrec is one generated query with its expected result count; Want is
// -1 where the graph changes under the query (serve_churn) and only
// path validity can be checked.
type qrec struct {
	Q    hcpath.Query
	Want int64
}

// updateBlock is one ApplyUpdates call of the churn writer.
type updateBlock struct {
	Adds, Dels []hcpath.Edge
}

// dataset builds the workload's graph at scale×the spec's factor, as
// the internal representation the generators and layer replays use and
// as the edge list the system under test is built from.
func dataset(w workloadSpec, scale float64) (*graph.Graph, []hcpath.Edge, error) {
	sp, err := datasets.ByCode(w.Dataset)
	if err != nil {
		return nil, nil, err
	}
	g := sp.Build(w.Scale * scale)
	edges := make([]hcpath.Edge, 0, g.NumEdges())
	g.Edges(func(u, v graph.VertexID) bool {
		edges = append(edges, hcpath.Edge{Src: u, Dst: v})
		return true
	})
	return g, edges, nil
}

// counter answers "how many result paths" with the BasicEnum engine —
// Algorithm 1, no sharing — which is the reference the batch engines
// are checked against.
type counter struct{ g *hcpath.Graph }

func newCounter(n int, edges []hcpath.Edge) (*counter, error) {
	hg, err := hcpath.NewGraph(n, edges)
	if err != nil {
		return nil, err
	}
	return &counter{g: hg}, nil
}

// counts returns each query's exact result count. A positive limit
// saturates counts there instead (the engine stops a query's output at
// the limit), which is all a generator needs to reject a candidate that
// is too heavy without paying for its full enumeration.
func (c *counter) counts(qs []hcpath.Query, limit int64) ([]int64, error) {
	eng := hcpath.NewEngine(c.g, &hcpath.Options{Algorithm: hcpath.BasicEnum, Limit: limit})
	out := make([]int64, 0, len(qs))
	for i := 0; i < len(qs); i += 100 {
		j := i + 100
		if j > len(qs) {
			j = len(qs)
		}
		cnt, _, err := eng.Count(qs[i:j])
		if err != nil {
			return nil, err
		}
		out = append(out, cnt...)
	}
	return out, nil
}

func toPublic(qs []query.Query) []hcpath.Query {
	out := make([]hcpath.Query, len(qs))
	for i, q := range qs {
		out[i] = hcpath.Query{S: q.S, T: q.T, K: int(q.K)}
	}
	return out
}

// subSeed derives an independent generator seed for one purpose from
// the run seed, so adding a draw to one generator never shifts another.
func subSeed(seed int64, stream int) int64 {
	return seed*1_000_003 + int64(stream)*7919 + 17
}

// nearTargets draws n queries whose target lies within maxDist hops of
// the source (far fewer than K), which is where result sets are large:
// the seeds of similar batches and the hot service traffic come from
// here, the way workload.heavySeeds biases Exp-1's seeds to heavy
// queries.
func nearTargets(g *graph.Graph, rng *rand.Rand, n, k, maxDist int) []hcpath.Query {
	out := make([]hcpath.Query, 0, n)
	for tries := 0; len(out) < n && tries < 200*n; tries++ {
		s := graph.VertexID(rng.Intn(g.NumVertices()))
		vis := msbfs.Single(g, s, uint8(maxDist)).Visited()
		if len(vis) < 2 {
			continue
		}
		t := vis[rng.Intn(len(vis))]
		if t == s {
			continue
		}
		out = append(out, hcpath.Query{S: s, T: t, K: k})
	}
	return out
}

// pickNearest returns the index of the count nearest want by
// log-distance, so 2× over and 2× under tie.
func pickNearest(counts []int64, want float64) int {
	best, bestD := -1, math.Inf(1)
	if want < 1 {
		want = 1
	}
	for i, c := range counts {
		d := math.Abs(math.Log(float64(c)+1) - math.Log(want+1))
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// genSimilar builds the offline_dense_similar batches. Each batch
// mirrors workload.WithSimilarity's construction at µ≈0.8 — four fifths
// of the batch are one heavy seed query, repeated exactly or with its
// source moved to an in-neighbour, one fifth independent random queries
// — but instead of steering µ by bisection it steers the batch's
// result-path total to spec.TargetPaths, so every batch of every seed
// asks for the same amount of enumeration.
func genSimilar(w workloadSpec, g *graph.Graph, cnt *counter, seed int64) ([][]qrec, error) {
	gr := g.Reverse()
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	simN := w.BatchSize * 4 / 5
	fillN := w.BatchSize - simN

	// Independent random queries for the dissimilar fifth. The rare
	// random query with a huge result set is dropped: one of them would
	// swamp the batch total the similar block is steered to.
	fillCap := w.TargetPaths / int64(2*fillN)
	draw, err := workload.Random(g, workload.Config{N: w.Batches * fillN * 5 / 4, KMin: w.KMin, KMax: w.KMax, Seed: subSeed(seed, 2)})
	if err != nil {
		return nil, err
	}
	drawQ := toPublic(draw)
	drawC, err := cnt.counts(drawQ, fillCap+1)
	if err != nil {
		return nil, err
	}
	var fillQ []hcpath.Query
	var fillC []int64
	for i, q := range drawQ {
		if drawC[i] <= fillCap {
			fillQ, fillC = append(fillQ, q), append(fillC, drawC[i])
		}
	}
	if len(fillQ) < w.Batches*fillN {
		return nil, fmt.Errorf("similar fill: only %d of %d random queries under %d paths", len(fillQ), w.Batches*fillN, fillCap)
	}

	var batches [][]qrec
	for b := 0; b < w.Batches; b++ {
		recs := make([]qrec, 0, w.BatchSize)
		var fillPaths int64
		for i := b * fillN; i < (b+1)*fillN; i++ {
			recs = append(recs, qrec{fillQ[i], fillC[i]})
			fillPaths += fillC[i]
		}
		simTarget := w.TargetPaths - fillPaths
		var sim []qrec
		for attempt := 0; sim == nil; attempt++ {
			if attempt > 400 {
				return nil, fmt.Errorf("similar batch %d: no seed query reaches %d paths", b, w.TargetPaths)
			}
			// Hop constraints alternate by batch, so every seed has the same
			// number of batches at each K.
			k := w.KMin + b%(w.KMax-w.KMin+1)
			cand := nearTargets(g, rng, 1, k, k-3)
			if len(cand) == 0 {
				continue
			}
			sim, err = similarAround(cand[0], gr, cnt, simN, simTarget)
			if err != nil {
				return nil, err
			}
		}
		recs = append(recs, sim...)
		// Interleave so the similar block is not contiguous in the batch.
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		batches = append(batches, recs)
	}
	return batches, nil
}

// similarAround composes n queries from seed and its in-neighbour
// variants (same target, source one hop upstream) whose result counts
// sum to within 2% of target; nil when this seed cannot.
func similarAround(seed hcpath.Query, gr *graph.Graph, cnt *counter, n int, target int64) ([]qrec, error) {
	// The seed alone decides most rejections; count it before paying for
	// its variants.
	per := float64(target) / float64(n)
	own, err := cnt.counts([]hcpath.Query{seed}, int64(per*2)+1)
	if err != nil {
		return nil, err
	}
	if c := float64(own[0]); c < per/2 || c > per*2 {
		return nil, nil
	}
	variants := []hcpath.Query{seed}
	for _, v := range gr.OutNeighbors(seed.S) { // in-neighbours of S
		if v != seed.T && v != seed.S && len(variants) < 16 {
			variants = append(variants, hcpath.Query{S: v, T: seed.T, K: seed.K})
		}
	}
	counts, err := cnt.counts(variants, 0)
	if err != nil {
		return nil, err
	}
	// Half the block repeats the seed exactly (recurring account pairs);
	// the other half walks the variants, each pick chosen to pull the
	// running total back onto the target.
	out := make([]qrec, 0, n)
	var total int64
	for i := 0; i < n/2; i++ {
		out = append(out, qrec{seed, counts[0]})
		total += counts[0]
	}
	for i := n / 2; i < n; i++ {
		want := float64(target-total) / float64(n-i)
		j := pickNearest(counts, want)
		out = append(out, qrec{variants[j], counts[j]})
		total += counts[j]
	}
	if math.Abs(float64(total-target)) > 0.02*float64(target) {
		return nil, nil
	}
	return out, nil
}

// genRandom builds the offline_sparse_random batches: independent
// random reachable pairs exactly as workload.Random draws them, with
// the hop constraints dealt round-robin so every batch holds the same
// K mix.
func genRandom(w workloadSpec, g *graph.Graph, cnt *counter, seed int64) ([][]qrec, error) {
	byK, err := randomByK(w, g, w.Batches*w.BatchSize, seed)
	if err != nil {
		return nil, err
	}
	counts, err := cnt.counts(byK, 0)
	if err != nil {
		return nil, err
	}
	batches := make([][]qrec, w.Batches)
	for i, q := range byK {
		b := i % w.Batches
		batches[b] = append(batches[b], qrec{q, counts[i]})
	}
	return batches, nil
}

// randomByK draws n workload.Random queries with K cycling over
// [KMin, KMax], grouped by K (all KMin first).
func randomByK(w workloadSpec, g *graph.Graph, n int, seed int64) ([]hcpath.Query, error) {
	ks := w.KMax - w.KMin + 1
	var out []hcpath.Query
	for i := 0; i < ks; i++ {
		share := n / ks
		if i < n%ks {
			share++
		}
		qs, err := workload.RandomFixedK(g, share, w.KMin+i, subSeed(seed, 10+i))
		if err != nil {
			return nil, err
		}
		out = append(out, toPublic(qs)...)
	}
	return out, nil
}

// genHot builds the hot-endpoint stream shared by serve_hot, shards_hot
// and cluster_hot: sources are drawn Zipf(ZipfS) from a pool of HotPool
// vertices, targets from inside the source's K-hop reach. (The
// repository's workload.Zipfian repeats whole queries whose targets sit
// on the k-hop horizon — about one path per query — which is index
// traffic, not serving traffic.) Each draw asks for a result size from
// a log-uniform profile on [PathsLo, PathsHi] and takes the source's
// candidate target nearest to it, so a popular source contributes a
// spread of result sizes, not whatever its few targets happen to have.
//
// The share of queries whose endpoints hash to different workers of a
// 2-shard deployment (hcpath.ShardOf, the documented stable partition)
// is dealt at exactly CrossShare. Left to chance it ranges 0.40-0.58
// over seeds, and the sharded deployments answer the two kinds in two
// modes — cross-shard joins in ~0.6 ms unbatched, single-shard queries
// in ~3.3 ms through the micro-batcher — so a share near one half puts
// the median latency in the gap between the modes, where it measures
// the seed.
func genHot(w workloadSpec, g *graph.Graph, cnt *counter, seed int64) ([]qrec, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	const perDist = 6
	type hot struct {
		qs     []hcpath.Query
		counts []int64
		cross  []bool // endpoints owned by different workers of a 2-shard deployment
	}
	lo, hi := math.Log(float64(w.PathsLo)), math.Log(float64(w.PathsHi))
	pool := make([]hot, 0, w.HotPool)
	for tries := 0; len(pool) < w.HotPool; tries++ {
		if tries > 50*w.HotPool {
			return nil, fmt.Errorf("hot pool: only %d of %d sources cover the result-size profile", len(pool), w.HotPool)
		}
		s := graph.VertexID(rng.Intn(g.NumVertices()))
		dm := msbfs.Single(g, s, uint8(w.KMax))
		vis := dm.Visited()
		// Candidates by distance class: most of a reach sits on its far
		// rings, where result sets are a handful of paths, so uniform
		// targets would rarely land inside the profile.
		byDist := make([][]graph.VertexID, w.KMax+1)
		for _, v := range vis {
			if d := dm.Dist(v); d > 0 {
				byDist[d] = append(byDist[d], v)
			}
		}
		var h hot
		for d := 1; d <= w.KMax; d++ {
			ring := byDist[d]
			rng.Shuffle(len(ring), func(i, j int) { ring[i], ring[j] = ring[j], ring[i] })
			for i := 0; i < perDist && i < len(ring); i++ {
				k := w.KMin + rng.Intn(w.KMax-w.KMin+1)
				if k < d {
					k = d
				}
				h.qs = append(h.qs, hcpath.Query{S: s, T: ring[i], K: k})
			}
		}
		// Counting stops at 4×PathsHi; a candidate that reaches the cap has
		// no exact count and is far off the profile anyway, so it is dropped.
		limit := 4 * w.PathsHi
		capped, err := cnt.counts(h.qs, limit)
		if err != nil {
			return nil, err
		}
		all := h.qs
		h.qs = nil
		for i, c := range capped {
			if c < limit {
				h.qs, h.counts = append(h.qs, all[i]), append(h.counts, c)
			}
		}
		// Keep the source only if its candidates cover the profile on both
		// sides of the 2-shard partition: one in each third of the (log)
		// range overall, two thirds for each side. Otherwise nearest-match
		// would answer most of its draws with whatever size it happens to
		// have.
		h.cross = make([]bool, len(h.qs))
		var cover [2][3]bool
		for i, c := range h.counts {
			h.cross[i] = hcpath.ShardOf(s, 2) != hcpath.ShardOf(h.qs[i].T, 2)
			if l := math.Log(float64(c)); l >= lo && l < hi {
				side := 0
				if h.cross[i] {
					side = 1
				}
				cover[side][int(3*(l-lo)/(hi-lo))] = true
			}
		}
		thirds := func(c [3]bool) (n int) {
			for _, ok := range c {
				if ok {
					n++
				}
			}
			return n
		}
		both := [3]bool{cover[0][0] || cover[1][0], cover[0][1] || cover[1][1], cover[0][2] || cover[1][2]}
		if thirds(both) == 3 && thirds(cover[0]) >= 2 && thirds(cover[1]) >= 2 {
			pool = append(pool, h)
		}
	}
	zipf := rand.NewZipf(rng, w.ZipfS, 1, uint64(len(pool)-1))
	out := make([]qrec, w.StreamLen)
	var owed float64 // cross-shard draws owed to the stream so far
	for i := range out {
		h := pool[zipf.Uint64()]
		want := math.Exp(lo + rng.Float64()*(hi-lo))
		owed += w.CrossShare
		cross := owed >= 1
		if cross {
			owed--
		}
		j := pickNearestOn(h.counts, h.cross, cross, want)
		out[i] = qrec{h.qs[j], h.counts[j]}
	}
	return out, nil
}

// pickNearestOn is pickNearest among the candidates on one side of the
// partition.
func pickNearestOn(counts []int64, side []bool, wantSide bool, want float64) int {
	best, bestD := -1, math.Inf(1)
	for i, c := range counts {
		if side[i] != wantSide {
			continue
		}
		if d := math.Abs(math.Log(float64(c)+1) - math.Log(want+1)); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// genChurn builds serve_churn's inputs: a uniform random query stream
// (no expected counts — the graph moves) and the writer's update
// blocks. Each block deletes UpdateDels edges that exist at that point
// and re-adds the edges deleted `lag` blocks earlier, topping up with
// fresh in-community edges while the lag fills, so the graph churns
// without drifting away from the dataset's shape.
func genChurn(w workloadSpec, g *graph.Graph, seed int64, blocks int) ([]qrec, []updateBlock, error) {
	qs, err := randomByK(w, g, w.StreamLen, seed)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 4)))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	stream := make([]qrec, len(qs))
	for i, q := range qs {
		stream[i] = qrec{q, -1}
	}

	live := make([]hcpath.Edge, 0, g.NumEdges())
	g.Edges(func(u, v graph.VertexID) bool {
		live = append(live, hcpath.Edge{Src: u, Dst: v})
		return true
	})
	const lag = 8
	var history [][]hcpath.Edge
	out := make([]updateBlock, blocks)
	for b := range out {
		var blk updateBlock
		for i := 0; i < w.UpdateDels && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			blk.Dels = append(blk.Dels, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if b >= lag {
			blk.Adds = append(blk.Adds, history[b-lag]...)
		}
		for len(blk.Adds) < w.UpdateAdds {
			// A fresh edge between the endpoints of two live edges keeps
			// the degree skew and locality of the dataset.
			u := live[rng.Intn(len(live))].Src
			v := live[rng.Intn(len(live))].Dst
			if u != v {
				blk.Adds = append(blk.Adds, hcpath.Edge{Src: u, Dst: v})
			}
		}
		live = append(live, blk.Adds...)
		history = append(history, blk.Dels)
		out[b] = blk
	}
	return stream, out, nil
}

// --- files ------------------------------------------------------------

// Query files hold one "s t k want" line per query, batches separated
// by "batch" lines; update files one "a u v" or "d u v" line per edge
// change, blocks separated by "block" lines. The system under test is
// built from these files alone.

func writeQueries(path, workload string, seed int64, batches [][]qrec) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# hcbench queries workload=%s seed=%d\n", workload, seed)
	for _, batch := range batches {
		b.WriteString("batch\n")
		for _, r := range batch {
			fmt.Fprintf(&b, "%d %d %d %d\n", r.Q.S, r.Q.T, r.Q.K, r.Want)
		}
	}
	return writeFile(path, b.String())
}

func writeUpdates(path, workload string, seed int64, blocks []updateBlock) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# hcbench updates workload=%s seed=%d\n", workload, seed)
	for _, blk := range blocks {
		b.WriteString("block\n")
		for _, e := range blk.Dels {
			fmt.Fprintf(&b, "d %d %d\n", e.Src, e.Dst)
		}
		for _, e := range blk.Adds {
			fmt.Fprintf(&b, "a %d %d\n", e.Src, e.Dst)
		}
	}
	return writeFile(path, b.String())
}

func writeFile(path, content string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(content), 0o644)
}

func readLines(path string, fn func(fields []string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || text[0] == '#' {
			continue
		}
		if err := fn(strings.Fields(text)); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
	}
	return sc.Err()
}

func atoi(fields []string) ([]int64, error) {
	out := make([]int64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func loadQueries(path string) ([][]qrec, error) {
	var batches [][]qrec
	err := readLines(path, func(f []string) error {
		if len(f) == 1 && f[0] == "batch" {
			batches = append(batches, nil)
			return nil
		}
		if len(f) != 4 || len(batches) == 0 {
			return fmt.Errorf("want \"s t k want\" after a batch line, got %q", strings.Join(f, " "))
		}
		v, err := atoi(f)
		if err != nil {
			return err
		}
		last := len(batches) - 1
		batches[last] = append(batches[last], qrec{
			Q:    hcpath.Query{S: hcpath.VertexID(v[0]), T: hcpath.VertexID(v[1]), K: int(v[2])},
			Want: v[3],
		})
		return nil
	})
	return batches, err
}

func loadUpdates(path string) ([]updateBlock, error) {
	var blocks []updateBlock
	err := readLines(path, func(f []string) error {
		if len(f) == 1 && f[0] == "block" {
			blocks = append(blocks, updateBlock{})
			return nil
		}
		if len(f) != 3 || len(blocks) == 0 || (f[0] != "a" && f[0] != "d") {
			return fmt.Errorf("want \"a|d u v\" after a block line, got %q", strings.Join(f, " "))
		}
		v, err := atoi(f[1:])
		if err != nil {
			return err
		}
		e := hcpath.Edge{Src: hcpath.VertexID(v[0]), Dst: hcpath.VertexID(v[1])}
		blk := &blocks[len(blocks)-1]
		if f[0] == "a" {
			blk.Adds = append(blk.Adds, e)
		} else {
			blk.Dels = append(blk.Dels, e)
		}
		return nil
	})
	return blocks, err
}

// inputs is what generation leaves behind for a run: the files the
// system is built from, plus the harness-side graph the layer replays
// and the oracle sample need.
type inputs struct {
	spec        workloadSpec
	g           *graph.Graph
	edges       []hcpath.Edge
	queriesPath string
	updatesPath string // empty unless the workload has a writer
}

// generate writes the workload's input files under dir and returns
// their paths. churnBlocks is how many update blocks the run will need.
func generate(w workloadSpec, seed int64, scale float64, dir string, churnBlocks int) (*inputs, error) {
	g, edges, err := dataset(w, scale)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: w, g: g, edges: edges, queriesPath: filepath.Join(dir, w.inputName()+".queries")}
	var batches [][]qrec
	switch w.Traffic {
	case trafficChurn:
		stream, blocks, err := genChurn(w, g, seed, churnBlocks)
		if err != nil {
			return nil, err
		}
		batches = [][]qrec{stream}
		in.updatesPath = filepath.Join(dir, w.Name+".updates")
		if err := writeUpdates(in.updatesPath, w.Name, seed, blocks); err != nil {
			return nil, err
		}
	default:
		cnt, err := newCounter(g.NumVertices(), edges)
		if err != nil {
			return nil, err
		}
		switch w.Traffic {
		case trafficSimilar:
			batches, err = genSimilar(w, g, cnt, seed)
		case trafficRandom:
			batches, err = genRandom(w, g, cnt, seed)
		case trafficHot:
			var stream []qrec
			stream, err = genHot(w, g, cnt, seed)
			batches = [][]qrec{stream}
		default:
			err = fmt.Errorf("unknown traffic %q", w.Traffic)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	if err := writeQueries(in.queriesPath, w.inputName(), seed, batches); err != nil {
		return nil, err
	}
	return in, nil
}
