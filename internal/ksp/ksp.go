// Package ksp implements the two k-shortest-path baselines the paper
// compares against in Exp-6, adapted to HC-s-t path enumeration exactly
// as §V prescribes: "we adapt them to the problem of HC-s-t path
// enumeration by ignoring their similarity constraint and keeping
// generating the path results until reaching the hop constraint".
//
// DkSP (Luo et al., VLDB'22) is a diversified top-k route planner; with
// the similarity constraint dropped its engine is a Yen-style deviation
// enumeration: paths are produced in non-decreasing length order by
// spurring off previously found paths, each spur solved with a masked
// BFS. OnePass (Chondrogiannis et al., VLDBJ'20) expands labels (partial
// paths) in a single best-first pass. Neither uses the hop-aware index
// pruning of PathEnum — the gap the experiment demonstrates.
package ksp

import (
	"container/heap"
	"sort"

	"repro/internal/graph"
	"repro/internal/msbfs"
	"repro/internal/query"
)

// Budget bounds the work of a baseline run so that experiments on
// adversarial inputs terminate; Exceeded reports whether the run was cut
// short (counted as OT in the harness).
type Budget struct {
	// MaxExpansions caps label expansions / spur BFS vertex visits.
	// Zero means unlimited.
	MaxExpansions int64
	used          int64
}

// spend consumes n units and reports whether the budget still holds.
func (b *Budget) spend(n int64) bool {
	if b == nil || b.MaxExpansions <= 0 {
		return true
	}
	b.used += n
	return b.used <= b.MaxExpansions
}

// Exceeded reports whether the run hit its cap.
func (b *Budget) Exceeded() bool {
	return b != nil && b.MaxExpansions > 0 && b.used > b.MaxExpansions
}

// ---------------------------------------------------------------------
// OnePass
// ---------------------------------------------------------------------

// label is a partial path in OnePass's priority queue.
type label struct {
	path []graph.VertexID
}

// labelQueue orders labels by length (hops), then lexicographically for
// determinism.
type labelQueue []*label

func (q labelQueue) Len() int { return len(q) }
func (q labelQueue) Less(i, j int) bool {
	if len(q[i].path) != len(q[j].path) {
		return len(q[i].path) < len(q[j].path)
	}
	a, b := q[i].path, q[j].path
	for x := range a {
		if a[x] != b[x] {
			return a[x] < b[x]
		}
	}
	return false
}
func (q labelQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *labelQueue) Push(x interface{}) { *q = append(*q, x.(*label)) }
func (q *labelQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}

// OnePass enumerates every HC-s-t path of q in non-decreasing hop order
// by best-first label expansion. Labels whose endpoint cannot reach t at
// all are dropped (OnePass's reachability pruning), but no hop-aware
// index pruning is applied — dead branches are only discovered when the
// remaining budget runs out, which is what makes the baseline slow.
// It returns false if the budget was exhausted before completion.
//
// The expansion loops poll ctrl for cancellation every step via
// ctrl.Poll (returning false, like a blown budget) and emissions are
// charged against q.ID's limit — since labels pop in (hops,
// lexicographic) order, a limit of n yields exactly the n canonically
// first paths, after which the run ends as complete. A nil ctrl runs
// to completion.
func OnePass(g, gr *graph.Graph, q query.Query, budget *Budget, ctrl *query.Control, emit func(path []graph.VertexID)) bool {
	distToT := msbfs.FullDistances(gr, q.T)
	if distToT[q.S] == msbfs.Unreachable {
		ctrl.MarkComplete(q.ID)
		return true
	}
	pq := labelQueue{{path: []graph.VertexID{q.S}}}
	heap.Init(&pq)
	steps, stopped := 0, false
	for pq.Len() > 0 {
		if stopped || ctrl.Cancelled() {
			return false
		}
		if ctrl.HitLimit(q.ID) {
			break
		}
		if !budget.spend(1) {
			return false
		}
		l := heap.Pop(&pq).(*label)
		v := l.path[len(l.path)-1]
		if v == q.T {
			if ctrl.Allow(q.ID) {
				emit(l.path)
			}
			continue // simple paths cannot extend beyond t and return
		}
		if uint8(len(l.path)-1) >= q.K {
			continue
		}
		for _, w := range g.OutNeighbors(v) {
			if ctrl.Poll(&steps, &stopped) {
				return false
			}
			if distToT[w] == msbfs.Unreachable {
				continue
			}
			if containsVertex(l.path, w) {
				continue
			}
			np := make([]graph.VertexID, len(l.path)+1)
			copy(np, l.path)
			np[len(l.path)] = w
			heap.Push(&pq, &label{path: np})
		}
	}
	ctrl.MarkComplete(q.ID)
	return true
}

// ---------------------------------------------------------------------
// DkSP (Yen-style deviation enumeration)
// ---------------------------------------------------------------------

// candidate is a complete s-t path awaiting output, keyed by its length
// and the spur position it deviated at.
type candidate struct {
	path []graph.VertexID
}

type candQueue []*candidate

func (q candQueue) Len() int { return len(q) }
func (q candQueue) Less(i, j int) bool {
	if len(q[i].path) != len(q[j].path) {
		return len(q[i].path) < len(q[j].path)
	}
	a, b := q[i].path, q[j].path
	for x := range a {
		if a[x] != b[x] {
			return a[x] < b[x]
		}
	}
	return false
}
func (q candQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *candQueue) Push(x interface{}) { *q = append(*q, x.(*candidate)) }
func (q *candQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}

// DkSP enumerates every HC-s-t path of q in non-decreasing hop order
// with Yen's deviation scheme: the shortest path is found by BFS, and
// each output path spawns candidates by re-solving a masked shortest
// path from every spur vertex with the shared prefix's edges and
// vertices removed. Generation stops once the next shortest candidate
// exceeds the hop constraint. It returns false if the budget ran out.
//
// The spur BFSes poll ctrl for cancellation every expansion step via
// ctrl.Poll (returning false, like a blown budget) and each accepted
// path is charged against q.ID's limit — outputs arrive in (hops,
// lexicographic) order, so a limit of n yields exactly the n
// canonically first paths and skips all further spur searches. A nil
// ctrl runs to completion.
func DkSP(g *graph.Graph, q query.Query, budget *Budget, ctrl *query.Control, emit func(path []graph.VertexID)) bool {
	steps, stopped := 0, false
	first := maskedShortestPath(g, q.S, q.T, nil, nil, budget, ctrl, &steps, &stopped)
	if stopped {
		return false
	}
	if budget.Exceeded() {
		return false
	}
	if first == nil || uint8(len(first)-1) > q.K {
		ctrl.MarkComplete(q.ID)
		return true
	}
	var outputs [][]graph.VertexID
	cands := candQueue{{path: first}}
	heap.Init(&cands)
	seen := map[string]bool{pathString(first): true}

	for cands.Len() > 0 {
		if ctrl.Cancelled() {
			return false
		}
		p := heap.Pop(&cands).(*candidate).path
		if uint8(len(p)-1) > q.K {
			break // candidates only get longer
		}
		if !ctrl.Allow(q.ID) {
			break // limit reached: drop this and all longer candidates
		}
		emit(p)
		outputs = append(outputs, p)

		// Spur: deviate from every prefix position of the accepted path.
		for i := 0; i < len(p)-1; i++ {
			if ctrl.Cancelled() {
				return false
			}
			rootPrefix := p[:i+1]
			spur := p[i]
			// Edges leaving the spur that any previous output with the
			// same root prefix already used are banned.
			bannedEdges := make(map[graph.VertexID]bool)
			for _, out := range outputs {
				if len(out) > i+1 && samePrefix(out, rootPrefix) {
					bannedEdges[out[i+1]] = true
				}
			}
			// Root-prefix vertices (except the spur) are banned to keep
			// the result simple.
			bannedVerts := make(map[graph.VertexID]bool, i)
			for _, v := range rootPrefix[:i] {
				bannedVerts[v] = true
			}
			tail := maskedShortestPath(g, spur, q.T, bannedVerts, bannedEdges, budget, ctrl, &steps, &stopped)
			if stopped {
				return false
			}
			if budget.Exceeded() {
				return false
			}
			if tail == nil {
				continue
			}
			total := make([]graph.VertexID, 0, i+len(tail))
			total = append(total, rootPrefix[:i]...)
			total = append(total, tail...)
			if uint8(len(total)-1) > q.K {
				continue
			}
			key := pathString(total)
			if !seen[key] {
				seen[key] = true
				heap.Push(&cands, &candidate{path: total})
			}
		}
	}
	ctrl.MarkComplete(q.ID)
	return true
}

// maskedShortestPath runs a BFS from s to t on g with banned vertices
// and, for edges leaving s only, banned first-hop targets (Yen's spur
// constraint). It returns the vertex sequence or nil — nil also on
// cancellation, which the caller detects via *stopped. steps/stopped
// are the caller's Poll pair, shared across the run's many BFSes so
// the PollInterval cadence spans them.
func maskedShortestPath(g *graph.Graph, s, t graph.VertexID, bannedVerts map[graph.VertexID]bool, bannedFirstHop map[graph.VertexID]bool, budget *Budget, ctrl *query.Control, steps *int, stopped *bool) []graph.VertexID {
	if s == t {
		return []graph.VertexID{s}
	}
	parent := map[graph.VertexID]graph.VertexID{s: s}
	queue := []graph.VertexID{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if !budget.spend(1) {
			return nil
		}
		for _, w := range g.OutNeighbors(v) {
			if ctrl.Poll(steps, stopped) {
				return nil
			}
			if v == s && bannedFirstHop[w] {
				continue
			}
			if bannedVerts[w] {
				continue
			}
			if _, visited := parent[w]; visited {
				continue
			}
			parent[w] = v
			if w == t {
				return reconstruct(parent, s, t)
			}
			queue = append(queue, w)
		}
	}
	return nil
}

func reconstruct(parent map[graph.VertexID]graph.VertexID, s, t graph.VertexID) []graph.VertexID {
	var rev []graph.VertexID
	for v := t; ; v = parent[v] {
		rev = append(rev, v)
		if v == s {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func samePrefix(p, prefix []graph.VertexID) bool {
	for i, v := range prefix {
		if p[i] != v {
			return false
		}
	}
	return true
}

func containsVertex(p []graph.VertexID, v graph.VertexID) bool {
	for _, u := range p {
		if u == v {
			return true
		}
	}
	return false
}

func pathString(p []graph.VertexID) string {
	// Fixed-width byte packing: cheap, collision-free map key.
	b := make([]byte, 0, len(p)*4)
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// SortPaths orders paths by (hops, lexicographic), the output order both
// baselines promise; exposed for tests comparing against oracles.
func SortPaths(paths [][]graph.VertexID) {
	sort.Slice(paths, func(i, j int) bool {
		if len(paths[i]) != len(paths[j]) {
			return len(paths[i]) < len(paths[j])
		}
		a, b := paths[i], paths[j]
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
}
