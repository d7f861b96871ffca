// Package sharegraph implements Phase 2 of the paper's common
// sub-structure detection (§IV-B): the query sharing graph Ψ (Def. 4.7)
// and the dominating HC-s path query detection of Algorithm 3.
//
// A node of Ψ is an HC-s path query q_{v,B}: enumerate every simple path
// starting at v with at most B hops (Def. 4.2; the paper's Search adds
// every prefix up to the budget, so B is inclusive). Terminal nodes are
// the forward/backward halves of the batch's HC-s-t queries; shared nodes
// are the dominating HC-s path queries discovered by the detector. An
// edge provider→consumer records that the consumer's enumeration, on
// reaching the provider's root vertex, splices the provider's cached
// paths instead of recursing (Lemma 4.1/4.2 computation sharing).
//
// Detection is the level-synchronous frontier simulation of Algorithm 3:
// budgets are consumed in lockstep, so every in-flight query arrives at a
// vertex of the level-r frontier with exactly r hops of budget left. When
// several queries arrive at the same vertex with the same remaining
// budget, their continuations coincide and a dominating HC-s path query
// is extracted (the paper's first observation); when a query arrives at a
// vertex where an HC-s path query with a larger budget is already rooted,
// it reuses that query's results directly with a length cut-off (the
// paper's second observation, Fig. 5(b)).
//
// Two deliberate deviations from the pseudocode, both documented in
// DESIGN.md:
//
//  1. The paper's MQ[v] may record a query rooted elsewhere (Alg. 3 line
//     15), whose materialised paths cannot be spliced at v. We instead
//     promote such a marker to a fresh shared node rooted at v the moment
//     a second query needs it, which keeps every reuse edge realisable.
//  2. Target-specific pruning (Lemma 3.1) cannot be baked into a shared
//     query that serves several targets. Every node therefore carries the
//     union of its consumers' (distance-map, slack) constraints; an
//     expansion survives if some consumer could still complete it. The
//     union is a performance filter only — over-produced partial paths
//     simply find no join partner — so sharing stays sound.
package sharegraph

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/msbfs"
)

// NodeID identifies a node of the sharing graph Ψ.
type NodeID = int32

// InvalidNode is a sentinel NodeID.
const InvalidNode NodeID = -1

// HalfQuery is one direction half of an HC-s-t query q(s,t,k): on G the
// forward half (Root=s, Budget=⌈k/2⌉), on Gr the backward half (Root=t,
// Budget=⌊k/2⌋). Other holds hop-bounded distances from the opposite
// endpoint on the opposite graph, i.e. the Lemma 3.1 pruning map.
type HalfQuery struct {
	Root   graph.VertexID
	Budget uint8
	K      uint8 // full hop constraint of the owning HC-s-t query
	Other  *msbfs.DistMap
	Query  int // batch position of the owning query
}

// Constraint is one consumer's Lemma 3.1 pruning condition translated
// into the frame of the node that carries it: expanding the node's DFS to
// vertex w at prefix length depth is useful to this consumer iff
// depth + dist(w, consumer's other endpoint) < Slack.
type Constraint struct {
	Other *msbfs.DistMap
	Slack int16
}

// Node is one HC-s path query of Ψ.
type Node struct {
	// Root and Budget define the HC-s path query q_{Root,Budget}.
	Root   graph.VertexID
	Budget uint8
	// Query is the batch position of the owning HC-s-t query for
	// terminal (half-query) nodes, or -1 for shared nodes.
	Query int
	// Constraints is the union of the consumers' pruning conditions
	// (deviation 2 above), in no particular order. Empty with Unbounded
	// set means "prune by budget only"; empty without Unbounded means no
	// consumer can use anything beyond the root.
	Constraints []Constraint
	// Unbounded disables constraint pruning (set when the union grew
	// past the cap, or when constraint propagation was disabled).
	Unbounded bool

	providers []NodeID
	consumers []NodeID
	// splice maps a vertex to the provider whose cache is spliced when
	// this node's enumeration steps onto that vertex.
	splice map[graph.VertexID]NodeID
}

// IsTerminal reports whether the node is the half of an HC-s-t query.
func (n *Node) IsTerminal() bool { return n.Query >= 0 }

// String renders the node in the paper's q_{v,k} notation.
func (n *Node) String() string {
	if n.IsTerminal() {
		return fmt.Sprintf("q_{v%d,%d}#%d", n.Root, n.Budget, n.Query)
	}
	return fmt.Sprintf("q_{v%d,%d}", n.Root, n.Budget)
}

// edge records provider→consumer with the splice vertex and the
// consumer's remaining budget on arrival, which constraint propagation
// needs to translate slacks between frames.
type edge struct {
	provider, consumer NodeID
	at                 graph.VertexID
	remaining          uint8
}

// Graph is the query sharing graph Ψ: a DAG over HC-s path queries.
type Graph struct {
	nodes []*Node
	edges []edge
}

// NumNodes returns the number of nodes in Ψ.
func (p *Graph) NumNodes() int { return len(p.nodes) }

// NumEdges returns the number of sharing edges in Ψ.
func (p *Graph) NumEdges() int { return len(p.edges) }

// NumShared returns the number of non-terminal (dominating HC-s path
// query) nodes, the count reported by the detection statistics.
func (p *Graph) NumShared() int {
	c := 0
	for _, n := range p.nodes {
		if !n.IsTerminal() {
			c++
		}
	}
	return c
}

// Node returns the node with the given id.
func (p *Graph) Node(id NodeID) *Node { return p.nodes[id] }

// Providers returns the ids of the nodes whose caches id consumes.
func (p *Graph) Providers(id NodeID) []NodeID { return p.nodes[id].providers }

// Consumers returns the ids of the nodes consuming id's cache.
func (p *Graph) Consumers(id NodeID) []NodeID { return p.nodes[id].consumers }

// SpliceAt returns the provider spliced when node id steps onto vertex v.
func (p *Graph) SpliceAt(id NodeID, v graph.VertexID) (NodeID, bool) {
	prov, ok := p.nodes[id].splice[v]
	return prov, ok
}

// addNode appends a node and returns its id.
func (p *Graph) addNode(n *Node) NodeID {
	id := NodeID(len(p.nodes))
	p.nodes = append(p.nodes, n)
	return id
}

// addEdge inserts provider→consumer. The caller guarantees acyclicity
// (fresh provider) or has checked with wouldCycle.
func (p *Graph) addEdge(provider, consumer NodeID, at graph.VertexID, remaining uint8) {
	p.edges = append(p.edges, edge{provider, consumer, at, remaining})
	pn, cn := p.nodes[provider], p.nodes[consumer]
	pn.consumers = append(pn.consumers, consumer)
	cn.providers = append(cn.providers, provider)
	if cn.splice == nil {
		cn.splice = make(map[graph.VertexID]NodeID, 4)
	}
	cn.splice[at] = provider
}

// wouldCycle reports whether adding provider→consumer would close a
// cycle, i.e. whether provider is reachable from consumer along existing
// provider→consumer edges (the consumer transitively supplies the
// provider). Ψ stays a DAG because every reuse insertion is guarded by
// this check; TestDetectAcyclic asserts the invariant.
func (p *Graph) wouldCycle(provider, consumer NodeID) bool {
	if provider == consumer {
		return true
	}
	seen := map[NodeID]bool{consumer: true}
	stack := []NodeID{consumer}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range p.nodes[v].consumers {
			if w == provider {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// TopoOrder returns the node ids in a topological order of the
// provider→consumer edges: every provider precedes all of its consumers,
// so caches exist before they are spliced (Alg. 4 line 6).
func (p *Graph) TopoOrder() []NodeID {
	n := len(p.nodes)
	indeg := make([]int, n)
	for _, e := range p.edges {
		indeg[e.consumer]++
	}
	order := make([]NodeID, 0, n)
	queue := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range p.nodes[v].consumers {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		// Guarded against by wouldCycle; a failure here is a bug.
		panic("sharegraph: Ψ contains a cycle")
	}
	return order
}

// Validate checks the structural invariants of Ψ: acyclicity, edge
// bookkeeping symmetry, splice vertices matching provider roots, and
// reuse budget soundness (a provider's budget covers the consumer's
// remaining budget at the splice vertex).
func (p *Graph) Validate() error {
	n := len(p.nodes)
	for _, e := range p.edges {
		if int(e.provider) >= n || int(e.consumer) >= n {
			return fmt.Errorf("sharegraph: edge %v out of range", e)
		}
		if p.nodes[e.provider].Root != e.at {
			return fmt.Errorf("sharegraph: provider %s not rooted at splice vertex v%d",
				p.nodes[e.provider], e.at)
		}
		if p.nodes[e.provider].Budget < e.remaining {
			return fmt.Errorf("sharegraph: provider %s budget below consumer remaining %d",
				p.nodes[e.provider], e.remaining)
		}
		if got := p.nodes[e.consumer].splice[e.at]; got != e.provider {
			return fmt.Errorf("sharegraph: splice map of %s at v%d is %d, want %d",
				p.nodes[e.consumer], e.at, got, e.provider)
		}
	}
	// TopoOrder panics on cycles; run it defensively.
	defer func() { recover() }()
	if len(p.TopoOrder()) != n {
		return fmt.Errorf("sharegraph: cyclic Ψ")
	}
	return nil
}

// maxConstraints caps the per-node pruning-constraint union; a node
// exceeding it falls back to budget-only pruning (sound, looser). The
// cap is generous because the enumerator memoises the union per vertex,
// so a large union costs once per (node, vertex) rather than once per
// expansion check.
const maxConstraints = 256

// mqEntry is the MQ[v] record of Algorithm 3: the latest HC-s path query
// known at vertex v and the remaining budget it had on arrival.
type mqEntry struct {
	node   NodeID
	budget uint8
	// rooted reports whether node is rooted at v (sharable directly) or
	// is a single-arrival marker rooted elsewhere (needs promotion).
	rooted bool
}

// Detect runs Algorithm 3 for one clustered group of half queries on one
// direction's graph g and returns the sharing graph Ψ. The terminal node
// for halves[i] is NodeID(i).
func Detect(g *graph.Graph, halves []HalfQuery) *Graph {
	return detect(g, halves, maxConstraints)
}

// detect is Detect under a given constraint cap.
func detect(g *graph.Graph, halves []HalfQuery, maxCons int) *Graph {
	psi := &Graph{}
	maxBudget := uint8(0)
	for _, h := range halves {
		node := &Node{Root: h.Root, Budget: h.Budget, Query: h.Query}
		node.Constraints = []Constraint{{Other: h.Other, Slack: int16(h.K)}}
		psi.addNode(node)
		if h.Budget > maxBudget {
			maxBudget = h.Budget
		}
	}
	if len(halves) < 2 {
		return psi
	}

	det := &detector{
		g:       g,
		psi:     psi,
		mq:      make(map[graph.VertexID]mqEntry),
		visited: make(map[visitKey]struct{}),
		arrive:  make([]map[graph.VertexID][]NodeID, maxBudget+1),
	}
	// Initial frontier: each half query arrives at its own root with its
	// full budget (Alg. 3 lines 2-4).
	for i, h := range halves {
		det.push(NodeID(i), h.Root, h.Budget)
	}
	// Levels descend: at level r every in-flight query has exactly r
	// hops of budget left (Alg. 3 lines 6-24). Level 0 arrivals carry
	// only the trivial single-vertex path and are not worth sharing.
	for r := maxBudget; r >= 1; r-- {
		det.processLevel(r)
	}
	propagateConstraints(psi, maxCons)
	return psi
}

type visitKey struct {
	node NodeID
	v    graph.VertexID
}

type detector struct {
	g       *graph.Graph
	psi     *Graph
	mq      map[graph.VertexID]mqEntry
	visited map[visitKey]struct{}
	arrive  []map[graph.VertexID][]NodeID
}

// push schedules node's frontier arrival at v with r budget left; each
// (node, vertex) pair is visited at most once, which bounds the whole
// detection at O(nodes·(|V|+|E|)) like the paper's Theorem 4.1.
func (d *detector) push(node NodeID, v graph.VertexID, r uint8) {
	key := visitKey{node, v}
	if _, dup := d.visited[key]; dup {
		return
	}
	d.visited[key] = struct{}{}
	if d.arrive[r] == nil {
		d.arrive[r] = make(map[graph.VertexID][]NodeID)
	}
	d.arrive[r][v] = append(d.arrive[r][v], node)
}

// processLevel handles every arrival with r budget remaining.
func (d *detector) processLevel(r uint8) {
	level := d.arrive[r]
	if len(level) == 0 {
		return
	}
	// Deterministic vertex order keeps Ψ reproducible across runs.
	verts := make([]graph.VertexID, 0, len(level))
	for v := range level {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })

	for _, v := range verts {
		nodes := dedupNodes(level[v])
		if mq, ok := d.mq[v]; ok {
			d.reuseAt(v, r, nodes, mq)
			continue
		}
		if len(nodes) == 1 {
			// Single arrival: remember it as MQ[v] (Alg. 3 lines 14-15)
			// and let its frontier continue.
			d.mq[v] = mqEntry{node: nodes[0], budget: r, rooted: d.psi.Node(nodes[0]).Root == v}
			d.expand(nodes[0], v, r)
			continue
		}
		// Multiple queries arrive with the same remaining budget: their
		// continuations coincide, so a dominating HC-s path query
		// q_{v,r} is extracted (Alg. 3 lines 16-19).
		u := d.psi.addNode(&Node{Root: v, Budget: r, Query: -1})
		for _, x := range nodes {
			d.psi.addEdge(u, x, v, r)
		}
		d.mq[v] = mqEntry{node: u, budget: r, rooted: true}
		// u has no frontier: its Constraints stay empty until
		// propagateConstraints, so PruneOK would refuse every neighbour,
		// and the arrivals' own frontiers stop here. Algorithm 3
		// continues the search from q_{v,r}; this detector does not.
	}
	d.arrive[r] = nil
}

// reuseAt lets arrivals at v consume the existing MQ[v] (Alg. 3 lines
// 20-24 seen from the arrival side). MQ was set at a level ≥ r, so its
// budget always covers the arrivals' remaining budget; splicing truncates
// cached paths to the consumer's remaining length at enumeration time.
func (d *detector) reuseAt(v graph.VertexID, r uint8, nodes []NodeID, mq mqEntry) {
	if !mq.rooted {
		// Promotion (deviation 1): the marker's paths are rooted
		// elsewhere and cannot be spliced at v, so materialise the
		// common continuation q_{v,mq.budget} as a fresh shared node;
		// the marker becomes its first consumer.
		u := d.psi.addNode(&Node{Root: v, Budget: mq.budget, Query: -1})
		d.psi.addEdge(u, mq.node, v, mq.budget)
		mq = mqEntry{node: u, budget: mq.budget, rooted: true}
		d.mq[v] = mq
		// The fresh node does not expand: the marker's frontier already
		// walked past v, and a second walk would only discover sharing
		// under constraints that are no longer level-synchronised.
	}
	for _, x := range nodes {
		if x == mq.node {
			continue // a node's own frontier looped back onto its root
		}
		if d.psi.wouldCycle(mq.node, x) {
			// The arrival transitively supplies MQ[v]; consuming it back
			// would deadlock the topological enumeration. Skip the reuse
			// and let the arrival keep exploring on its own.
			d.expand(x, v, r)
			continue
		}
		d.psi.addEdge(mq.node, x, v, r)
	}
}

// expand advances node's frontier one hop from v, applying the union
// pruning of the node's consumers ("v′ meets the hop constraint",
// Alg. 3 line 20).
func (d *detector) expand(node NodeID, v graph.VertexID, r uint8) {
	if r == 0 {
		return
	}
	n := d.psi.Node(node)
	depth := int(n.Budget) - int(r) // prefix length before the hop
	for _, w := range d.g.OutNeighbors(v) {
		if !n.PruneOK(depth, w) {
			continue
		}
		d.push(node, w, r-1)
	}
}

// PruneOK reports whether expanding the node's DFS to w at prefix length
// depth can still serve some consumer (Lemma 3.1 over the constraint
// union). It is a performance filter: a false return only skips partial
// paths that no consumer can complete.
func (n *Node) PruneOK(depth int, w graph.VertexID) bool {
	if n.Unbounded {
		return true
	}
	for _, c := range n.Constraints {
		dw := c.Other.Dist(w)
		if dw == msbfs.Unreachable {
			continue
		}
		if int16(depth)+int16(dw) < c.Slack {
			return true
		}
	}
	return false
}

// MinResidual returns the smallest distance from w to any consumer's
// opposite endpoint, the sort key of the optimised ("+") expansion order;
// unreachable vertices sort last.
func (n *Node) MinResidual(w graph.VertexID) uint8 {
	best := msbfs.Unreachable
	for _, c := range n.Constraints {
		if dw := c.Other.Dist(w); dw < best {
			best = dw
		}
	}
	return best
}

// propagateConstraints finalises each node's pruning-constraint union by
// flowing consumer constraints to providers in reverse topological order.
// A consumer's constraint (dm, s) reaches a provider spliced with
// remaining budget rem as (dm, s − (consumerBudget − rem)): depths inside
// the provider sit that many hops deeper in the consumer's frame.
//
// Detection already used provisional constraints to bound frontiers;
// this pass recomputes them from the final edge set so that enumeration
// never prunes a partial path some late-added consumer still needs.
func propagateConstraints(psi *Graph, maxCons int) {
	// Group incoming constraint contributions per provider.
	type contrib struct {
		consumer NodeID
		shift    int16
	}
	incoming := make([][]contrib, len(psi.nodes))
	for _, e := range psi.edges {
		shift := int16(psi.nodes[e.consumer].Budget) - int16(e.remaining)
		incoming[e.provider] = append(incoming[e.provider], contrib{e.consumer, shift})
	}
	order := psi.TopoOrder()
	// Reverse topological: consumers finalised before their providers.
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		n := psi.nodes[id]
		// Terminals keep their own exact constraint and add consumers'.
		set := make(map[constraintKey]int16)
		if n.IsTerminal() {
			for _, c := range n.Constraints {
				mergeConstraint(set, c.Other, c.Slack)
			}
		} else {
			n.Constraints = n.Constraints[:0]
		}
		unbounded := false
		for _, in := range incoming[id] {
			c := psi.nodes[in.consumer]
			if c.Unbounded {
				unbounded = true
				break
			}
			for _, cc := range c.Constraints {
				if s := cc.Slack - in.shift; s > 0 {
					mergeConstraint(set, cc.Other, s)
				}
			}
		}
		if unbounded || len(set) > maxCons {
			n.Unbounded = true
			if !n.IsTerminal() {
				n.Constraints = nil
			}
			continue
		}
		n.Unbounded = false
		// Map order: every reader of the union (PruneOK's any,
		// MinResidual's min, batchenum's max bound) is order-free.
		n.Constraints = n.Constraints[:0]
		for k, s := range set {
			n.Constraints = append(n.Constraints, Constraint{Other: k.other, Slack: s})
		}
	}
}

type constraintKey struct{ other *msbfs.DistMap }

// mergeConstraint keeps the loosest (largest) slack per distance map:
// the union semantics is "∃ consumer satisfied", and a larger slack
// subsumes a smaller one for the same map.
func mergeConstraint(set map[constraintKey]int16, other *msbfs.DistMap, slack int16) {
	k := constraintKey{other}
	if cur, ok := set[k]; !ok || slack > cur {
		set[k] = slack
	}
}

func dedupNodes(ids []NodeID) []NodeID {
	if len(ids) <= 1 {
		return ids
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}
