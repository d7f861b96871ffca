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
// Three deliberate deviations from the pseudocode, all documented in
// docs/ARCHITECTURE.md:
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
//  3. An extracted dominating query q_{v,r} does not continue the search
//     from v (Alg. 3 does): its constraints are unknown until detection
//     ends, so it has no frontier, and the arrivals' frontiers stop at v.
//
// Each sharing edge is stored once: as the consumer's splice entry,
// naming the provider's root, with the consumer's remaining budget on
// arrival, plus the consumer's id in the provider's consumer list.
package sharegraph

import (
	"fmt"
	"iter"
	"slices"

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

	consumers []NodeID
	// splice is the node's record of each sharing edge it consumes, one
	// entry per provider root, in insertion order. A node consumes a
	// handful of providers, so a linear scan (spliceAt) finds one.
	splice []spliceEntry
}

// spliceEntry is one sharing edge provider→consumer, held by the
// consumer: the provider's root at, where the consumer's enumeration
// splices the provider's cache instead of recursing, the provider, and
// the consumer's remaining budget on arrival there, which constraint
// propagation needs to translate slacks between frames.
type spliceEntry struct {
	at        graph.VertexID
	provider  NodeID
	remaining uint8
}

// spliceAt returns the node's splice entry at vertex v.
func (n *Node) spliceAt(v graph.VertexID) (spliceEntry, bool) {
	for _, s := range n.splice {
		if s.at == v {
			return s, true
		}
	}
	return spliceEntry{}, false
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

// Graph is the query sharing graph Ψ: a DAG over HC-s path queries.
type Graph struct {
	nodes []*Node
}

// NumNodes returns the number of nodes in Ψ.
func (p *Graph) NumNodes() int { return len(p.nodes) }

// NumEdges returns the number of sharing edges in Ψ.
func (p *Graph) NumEdges() int {
	m := 0
	for _, n := range p.nodes {
		m += len(n.splice)
	}
	return m
}

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

// Providers yields the ids of the nodes whose caches id consumes, in the
// order their sharing edges were added.
func (p *Graph) Providers(id NodeID) iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for _, s := range p.nodes[id].splice {
			if !yield(s.provider) {
				return
			}
		}
	}
}

// Consumers returns the ids of the nodes consuming id's cache.
func (p *Graph) Consumers(id NodeID) []NodeID { return p.nodes[id].consumers }

// SpliceAt returns the provider spliced when node id steps onto vertex v.
func (p *Graph) SpliceAt(id NodeID, v graph.VertexID) (NodeID, bool) {
	s, ok := p.nodes[id].spliceAt(v)
	return s.provider, ok
}

// addNode appends a node and returns its id.
func (p *Graph) addNode(n *Node) NodeID {
	id := NodeID(len(p.nodes))
	p.nodes = append(p.nodes, n)
	return id
}

// addEdge inserts provider→consumer, spliced at the provider's root,
// which the consumer reaches with remaining budget left. The caller
// guarantees acyclicity (fresh provider) or has checked with wouldCycle.
// A consumer arrives at a vertex once (push), so it never gains a
// second splice entry at the same vertex.
func (p *Graph) addEdge(provider, consumer NodeID, remaining uint8) {
	pn, cn := p.nodes[provider], p.nodes[consumer]
	pn.consumers = append(pn.consumers, consumer)
	if cn.splice == nil {
		cn.splice = make([]spliceEntry, 0, 4)
	}
	cn.splice = append(cn.splice, spliceEntry{pn.Root, provider, remaining})
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
// so caches exist before they are spliced (Alg. 4 line 6). It is Kahn's
// algorithm with the order itself as the queue.
func (p *Graph) TopoOrder() []NodeID {
	n := len(p.nodes)
	indeg := make([]int, n)
	order := make([]NodeID, 0, n)
	for i, nd := range p.nodes {
		indeg[i] = len(nd.splice)
		if indeg[i] == 0 {
			order = append(order, NodeID(i))
		}
	}
	for h := 0; h < len(order); h++ {
		for _, w := range p.nodes[order[h]].consumers {
			indeg[w]--
			if indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	if len(order) != n {
		// Guarded against by wouldCycle; a failure here is a bug.
		panic("sharegraph: Ψ contains a cycle")
	}
	return order
}

// Validate checks the structural invariants of Ψ: every splice entry
// names an in-range provider rooted at its splice vertex whose budget
// covers the consumer's remaining budget there, the splice entries and
// the consumer lists record the same edges, and Ψ is acyclic.
func (p *Graph) Validate() (err error) {
	n := NodeID(len(p.nodes))
	for id, nd := range p.nodes {
		for _, s := range nd.splice {
			if s.provider < 0 || s.provider >= n {
				return fmt.Errorf("sharegraph: %s splices provider %d, out of range", nd, s.provider)
			}
			prov := p.nodes[s.provider]
			if prov.Root != s.at {
				return fmt.Errorf("sharegraph: provider %s not rooted at splice vertex v%d", prov, s.at)
			}
			if prov.Budget < s.remaining {
				return fmt.Errorf("sharegraph: provider %s budget below consumer remaining %d", prov, s.remaining)
			}
			if !slices.Contains(prov.consumers, NodeID(id)) {
				return fmt.Errorf("sharegraph: %s splices %s, which does not list it", nd, prov)
			}
		}
		for _, w := range nd.consumers {
			if w < 0 || w >= n {
				return fmt.Errorf("sharegraph: %s lists consumer %d, out of range", nd, w)
			}
			if s, ok := p.nodes[w].spliceAt(nd.Root); !ok || s.provider != NodeID(id) {
				return fmt.Errorf("sharegraph: %s lists consumer %s, which does not splice it", nd, p.nodes[w])
			}
		}
	}
	// TopoOrder panics on a cycle.
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("sharegraph: cyclic Ψ")
		}
	}()
	p.TopoOrder()
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
	// The terminals and their own constraints come in one allocation
	// each; a terminal's union grows out of its one-slot slice.
	terms := make([]Node, len(halves))
	own := make([]Constraint, len(halves))
	for i, h := range halves {
		own[i] = Constraint{Other: h.Other, Slack: int16(h.K)}
		terms[i] = Node{Root: h.Root, Budget: h.Budget, Query: h.Query, Constraints: own[i : i+1 : i+1]}
		psi.addNode(&terms[i])
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
		arrive:  make([][]uint64, maxBudget+1),
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
	// arrive[r] lists the frontier arrivals with r budget left, each
	// packed as vertex<<32 | node.
	arrive [][]uint64
	nodes  []NodeID // one vertex's arrivals, reused across vertices
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
	d.arrive[r] = append(d.arrive[r], uint64(v)<<32|uint64(node))
}

// processLevel handles every arrival with r budget remaining.
func (d *detector) processLevel(r uint8) {
	// Sorted, the packed arrivals run vertex by vertex, ascending, each
	// run's nodes ascending and distinct (push visits a pair once): a
	// deterministic order, so Ψ is reproducible across runs.
	level := d.arrive[r]
	slices.Sort(level)
	for i := 0; i < len(level); {
		v := graph.VertexID(level[i] >> 32)
		nodes := d.nodes[:0]
		for ; i < len(level) && graph.VertexID(level[i]>>32) == v; i++ {
			nodes = append(nodes, NodeID(uint32(level[i])))
		}
		d.nodes = nodes
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
			d.psi.addEdge(u, x, r)
		}
		d.mq[v] = mqEntry{node: u, budget: r, rooted: true}
		// u has no frontier (deviation 3): its Constraints stay empty
		// until propagateConstraints, so PruneOK would refuse every
		// neighbour, and the arrivals' own frontiers stop here.
		// Algorithm 3 continues the search from q_{v,r}; this detector
		// does not.
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
		d.psi.addEdge(u, mq.node, mq.budget)
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
		d.psi.addEdge(mq.node, x, r)
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
	// set is one node's union: the loosest (largest) slack per distance
	// map, since the union means "∃ consumer satisfied" and a larger
	// slack subsumes a smaller one for the same map.
	set := make(map[*msbfs.DistMap]int16)
	merge := func(other *msbfs.DistMap, slack int16) {
		if cur, ok := set[other]; !ok || slack > cur {
			set[other] = slack
		}
	}
	order := psi.TopoOrder()
	// Reverse topological: consumers finalised before their providers.
	for i := len(order) - 1; i >= 0; i-- {
		n := psi.nodes[order[i]]
		clear(set)
		// Terminals keep their own exact constraint and add consumers'.
		if n.IsTerminal() {
			for _, c := range n.Constraints {
				merge(c.Other, c.Slack)
			}
		}
		unbounded := false
		for _, ci := range n.consumers {
			c := psi.nodes[ci]
			if c.Unbounded {
				unbounded = true
				break
			}
			s, _ := c.spliceAt(n.Root)
			shift := int16(c.Budget) - int16(s.remaining)
			for _, cc := range c.Constraints {
				if s := cc.Slack - shift; s > 0 {
					merge(cc.Other, s)
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
		// batchenum's max bound) is order-free.
		n.Constraints = n.Constraints[:0]
		for other, s := range set {
			n.Constraints = append(n.Constraints, Constraint{Other: other, Slack: s})
		}
	}
}
