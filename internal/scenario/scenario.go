// Package scenario is the deterministic replay harness for mixed
// service workloads: bursts of concurrent queries (some hostile — hop
// caps far above the typical range), live graph updates applied between
// bursts, and named callers for the fairness quota. A scenario is
// recorded in a seed-stamped text file, so any run can be reproduced
// bit-for-bit: the file carries the generator inputs (graph key, seed,
// wave count) and the full operation list, and the generator is
// deterministic, so `Generate` over the stamped inputs must re-derive
// the committed operations exactly — the property the golden test
// enforces.
//
// Replay semantics are wave-synchronous, the same discipline as
// `cmd/hcpath -updates`: a wave's updates apply first (one atomic
// epoch), then its queries are submitted concurrently — so they
// micro-batch and exercise the collector and the parallel engine
// — and the wave completes before the next begins. Per-query counts are
// therefore deterministic (each query sees exactly its wave's epoch)
// even though batching and grouping are not, which is what makes the
// harness a differential oracle: any engine configuration must produce
// the same counts.
package scenario

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/testgraphs"
)

// Query is one recorded query: endpoints, hop cap, and the caller name
// it is submitted under (admission quotas are per caller).
type Query struct {
	S, T   graph.VertexID
	K      uint8
	Caller string
}

// Wave is one synchronous step of a scenario: updates applied first,
// then the queries submitted concurrently.
type Wave struct {
	Adds, Dels []graph.Edge
	Queries    []Query
}

// Scenario is a recorded workload over one corpus graph.
type Scenario struct {
	// GraphKey names the corpus graph (see BuildGraph).
	GraphKey string
	// Seed and GenWaves stamp the generator inputs that produced the
	// scenario, making the file reproducible: Generate(GraphKey, Seed,
	// GenWaves) re-derives the identical operation list.
	Seed     int64
	GenWaves int
	Waves    []Wave
}

// NumQueries returns the total queries across all waves.
func (s *Scenario) NumQueries() int {
	n := 0
	for _, w := range s.Waves {
		n += len(w.Queries)
	}
	return n
}

// BuildGraph resolves a corpus graph key: "paper", "diamond",
// "cycle:N", "line:N" or "completeDAG:N".
func BuildGraph(key string) (*graph.Graph, error) {
	name, arg, hasArg := strings.Cut(key, ":")
	n := 0
	if hasArg {
		v, err := strconv.Atoi(arg)
		if err != nil || v < 2 {
			return nil, fmt.Errorf("scenario: bad graph size in key %q", key)
		}
		n = v
	}
	switch {
	case name == "paper" && !hasArg:
		return testgraphs.Paper(), nil
	case name == "diamond" && !hasArg:
		return testgraphs.Diamond(), nil
	case name == "cycle" && hasArg:
		return testgraphs.Cycle(n), nil
	case name == "line" && hasArg:
		return testgraphs.Line(n), nil
	case name == "completeDAG" && hasArg:
		return testgraphs.CompleteDAG(n), nil
	}
	return nil, fmt.Errorf("scenario: unknown graph key %q", key)
}

// Generate derives a mixed workload deterministically from its inputs:
// waves of concurrent query bursts — clustered look-alikes around a hub
// pair (the sharing engines' best case), independent random queries
// (their worst case), and hostile queries with hop caps far above the
// 4–7 norm — interleaved with random live edge updates that may also
// grow the vertex space. The same inputs always yield the same
// scenario; that is the whole point.
func Generate(graphKey string, seed int64, waves int) (*Scenario, error) {
	g, err := BuildGraph(graphKey)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed))
	sc := &Scenario{GraphKey: graphKey, Seed: seed, GenWaves: waves}

	randomPair := func() (graph.VertexID, graph.VertexID) {
		s := graph.VertexID(rng.Intn(n))
		t := graph.VertexID(rng.Intn(n))
		for t == s {
			t = graph.VertexID(rng.Intn(n))
		}
		return s, t
	}

	for w := 0; w < waves; w++ {
		var wave Wave
		// Live updates mid-flight: later waves mutate the graph the
		// earlier waves queried. Adds may name a vertex one past the
		// current space so replays exercise vertex growth too.
		if w > 0 && rng.Intn(2) == 0 {
			for i := 1 + rng.Intn(3); i > 0; i-- {
				u := graph.VertexID(rng.Intn(n + 1))
				v := graph.VertexID(rng.Intn(n + 1))
				if u == v {
					continue
				}
				if rng.Intn(3) == 0 {
					wave.Dels = append(wave.Dels, graph.Edge{Src: u, Dst: v})
				} else {
					wave.Adds = append(wave.Adds, graph.Edge{Src: u, Dst: v})
				}
			}
		}
		hubS, hubT := randomPair()
		for i := 1 + rng.Intn(10); i > 0; i-- {
			var q Query
			switch rng.Intn(5) {
			case 0: // hostile hop cap, far above the 4–7 norm
				s, t := randomPair()
				q = Query{S: s, T: t, K: uint8(10 + rng.Intn(6))}
			case 1, 2: // clustered around the wave's hub pair
				s := hubS
				if rng.Intn(2) == 0 {
					s = graph.VertexID(rng.Intn(n))
				}
				if s == hubT {
					s = hubS
				}
				q = Query{S: s, T: hubT, K: uint8(3 + rng.Intn(3))}
			default: // independent random query
				s, t := randomPair()
				q = Query{S: s, T: t, K: uint8(2 + rng.Intn(5))}
			}
			q.Caller = fmt.Sprintf("c%d", rng.Intn(3))
			wave.Queries = append(wave.Queries, q)
		}
		sc.Waves = append(sc.Waves, wave)
	}
	return sc, nil
}

// Encode writes the scenario in its text form: a seed-stamped header,
// then one operation per line grouped into waves.
func (s *Scenario) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# scenario: deterministic mixed workload; regenerate with Generate(%q, %d, %d)\n",
		s.GraphKey, s.Seed, s.GenWaves)
	fmt.Fprintf(bw, "graph %s\nseed %d\ngenwaves %d\n", s.GraphKey, s.Seed, s.GenWaves)
	for _, wave := range s.Waves {
		fmt.Fprintln(bw, "wave")
		for _, e := range wave.Dels {
			fmt.Fprintf(bw, "del %d %d\n", e.Src, e.Dst)
		}
		for _, e := range wave.Adds {
			fmt.Fprintf(bw, "add %d %d\n", e.Src, e.Dst)
		}
		for _, q := range wave.Queries {
			fmt.Fprintf(bw, "query %d %d %d %s\n", q.S, q.T, q.K, q.Caller)
		}
	}
	return bw.Flush()
}

// WriteFile records the scenario at path.
func (s *Scenario) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Parse reads the text form back. Unknown directives are errors — a
// scenario file that cannot be replayed faithfully must not replay at
// all.
func Parse(r io.Reader) (*Scenario, error) {
	sc := &Scenario{}
	var wave *Wave
	sawGraph := false
	scan := bufio.NewScanner(r)
	line := 0
	for scan.Scan() {
		line++
		text := strings.TrimSpace(scan.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		ints := func(want int) ([]uint64, error) {
			if len(fields) < want+1 {
				return nil, fmt.Errorf("scenario:%d: want %d operands, got %q", line, want, text)
			}
			vals := make([]uint64, want)
			for i := range vals {
				v, err := strconv.ParseUint(fields[i+1], 10, 32)
				if err != nil {
					return nil, fmt.Errorf("scenario:%d: operand %d: %v", line, i+1, err)
				}
				vals[i] = v
			}
			return vals, nil
		}
		switch fields[0] {
		case "graph":
			if len(fields) != 2 {
				return nil, fmt.Errorf("scenario:%d: graph wants one key", line)
			}
			sc.GraphKey, sawGraph = fields[1], true
		case "seed":
			if len(fields) != 2 {
				return nil, fmt.Errorf("scenario:%d: seed wants one value", line)
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("scenario:%d: seed: %v", line, err)
			}
			sc.Seed = v
		case "genwaves":
			if len(fields) != 2 {
				return nil, fmt.Errorf("scenario:%d: genwaves wants one value", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("scenario:%d: genwaves: %v", line, err)
			}
			sc.GenWaves = v
		case "wave":
			sc.Waves = append(sc.Waves, Wave{})
			wave = &sc.Waves[len(sc.Waves)-1]
		case "add", "del":
			if wave == nil {
				return nil, fmt.Errorf("scenario:%d: %s before first wave", line, fields[0])
			}
			vals, err := ints(2)
			if err != nil {
				return nil, err
			}
			e := graph.Edge{Src: graph.VertexID(vals[0]), Dst: graph.VertexID(vals[1])}
			if fields[0] == "add" {
				wave.Adds = append(wave.Adds, e)
			} else {
				wave.Dels = append(wave.Dels, e)
			}
		case "query":
			if wave == nil {
				return nil, fmt.Errorf("scenario:%d: query before first wave", line)
			}
			vals, err := ints(3)
			if err != nil {
				return nil, err
			}
			if vals[2] == 0 || vals[2] > 255 {
				return nil, fmt.Errorf("scenario:%d: hop cap %d outside [1, 255]", line, vals[2])
			}
			q := Query{S: graph.VertexID(vals[0]), T: graph.VertexID(vals[1]), K: uint8(vals[2])}
			if len(fields) == 5 {
				q.Caller = fields[4]
			} else if len(fields) != 4 {
				return nil, fmt.Errorf("scenario:%d: query wants 's t k [caller]', got %q", line, text)
			}
			wave.Queries = append(wave.Queries, q)
		default:
			return nil, fmt.Errorf("scenario:%d: unknown directive %q", line, fields[0])
		}
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	if !sawGraph {
		return nil, fmt.Errorf("scenario: missing graph key")
	}
	return sc, nil
}

// Load reads a scenario file.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Result is one replay's outcome, indexed by global query position
// (file order: waves in sequence, queries within a wave in file order).
type Result struct {
	Counts []int64
	Errs   []error
	Totals service.Totals
}

// Replay drives the scenario through a fresh service built from cfg:
// per wave, updates apply as one epoch, then the wave's queries are
// submitted concurrently (count mode) and awaited. Counts land at
// deterministic positions regardless of how the collector batches the
// burst. The service is closed before returning.
func Replay(sc *Scenario, cfg service.Config) (*Result, error) {
	g, err := BuildGraph(sc.GraphKey)
	if err != nil {
		return nil, err
	}
	svc := service.New(g, g.Reverse(), cfg)
	defer svc.Close()

	res := &Result{
		Counts: make([]int64, sc.NumQueries()),
		Errs:   make([]error, sc.NumQueries()),
	}
	base := 0
	for wi, wave := range sc.Waves {
		if len(wave.Adds)+len(wave.Dels) > 0 {
			if _, err := svc.ApplyUpdates(wave.Adds, wave.Dels); err != nil {
				return nil, fmt.Errorf("scenario: wave %d updates: %w", wi, err)
			}
		}
		var wg sync.WaitGroup
		for i, q := range wave.Queries {
			wg.Add(1)
			go func(slot int, q Query) {
				defer wg.Done()
				r, err := svc.Submit(context.Background(), q.Caller,
					query.Query{S: q.S, T: q.T, K: q.K}, false)
				if err != nil {
					res.Errs[slot] = err
					return
				}
				res.Counts[slot] = r.Count
				res.Errs[slot] = r.Err
			}(base+i, q)
		}
		wg.Wait()
		base += len(wave.Queries)
	}
	res.Totals = svc.Stats()
	return res, nil
}

// Oracle computes the ground-truth count of every query by running the
// brute-force reference enumerator on each wave's graph (waveGraphs).
func Oracle(sc *Scenario) ([]int64, error) {
	graphs, err := sc.waveGraphs()
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, sc.NumQueries())
	for w, wave := range sc.Waves {
		for _, q := range wave.Queries {
			out = append(out, oracle.Count(graphs[w], query.Query{S: q.S, T: q.T, K: q.K}))
		}
	}
	return out, nil
}

// waveGraphs returns the graph each wave's queries see, rebuilt from
// scratch at each wave by mirroring the store's update semantics on a
// plain edge set — deletions before additions within a wave, self-loops
// dropped, vertex space growing to fit.
func (s *Scenario) waveGraphs() ([]*graph.Graph, error) {
	g, err := BuildGraph(s.GraphKey)
	if err != nil {
		return nil, err
	}
	edges := make(map[graph.Edge]bool)
	g.Edges(func(src, dst graph.VertexID) bool {
		edges[graph.Edge{Src: src, Dst: dst}] = true
		return true
	})
	maxV := g.NumVertices()

	out := make([]*graph.Graph, 0, len(s.Waves))
	for _, wave := range s.Waves {
		for _, e := range wave.Dels {
			delete(edges, e)
		}
		for _, e := range wave.Adds {
			if e.Src == e.Dst {
				continue
			}
			edges[e] = true
			if v := int(max(e.Src, e.Dst)) + 1; v > maxV {
				maxV = v
			}
		}
		var flat []graph.Edge
		for e := range edges {
			flat = append(flat, e)
		}
		out = append(out, graph.FromEdges(maxV, flat))
	}
	return out, nil
}
