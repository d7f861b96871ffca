// Package epochbind_a exercises the epochbind analyzer: index epochs
// must derive from the live snapshot, never a compile-time constant.
package epochbind_a

import (
	"repro/internal/batchenum"
	"repro/internal/graph"
	"repro/internal/hcindex"
	"repro/internal/query"
	"repro/internal/store"
)

const frozenEpoch = 12

// acquireConstant pins the cache generation forever.
func acquireConstant(p hcindex.Provider, g, gr *graph.Graph, qs []query.Query) *hcindex.Index {
	return p.Acquire(g, gr, 42, qs) // want `constant 42 as epoch argument`
}

// acquireNamedConstant is no better: the type checker still sees a
// constant.
func acquireNamedConstant(p hcindex.Provider, g, gr *graph.Graph, qs []query.Query) *hcindex.Index {
	return p.Acquire(g, gr, frozenEpoch, qs) // want `constant 12 as epoch argument`
}

// acquireOneConstant: the one-query route binds its cache entries the
// same way, so a constant there is the same bug.
func acquireOneConstant(p hcindex.Provider, g, gr *graph.Graph, q query.Query) *hcindex.Index {
	return p.AcquireOne(g, gr, 5, q) // want `constant 5 as epoch argument of hcindex AcquireOne`
}

// acquireOneSnapshot derives the epoch, as it should.
func acquireOneSnapshot(c *hcindex.Cache, snap *store.Snapshot, q query.Query) *hcindex.Index {
	return c.AcquireOne(snap.Graph(), snap.Reverse(), snap.Epoch(), q)
}

// acquireSnapshot is the reported fix applied: the epoch follows the
// store.
func acquireSnapshot(p hcindex.Provider, snap *store.Snapshot, qs []query.Query) *hcindex.Index {
	return p.Acquire(snap.Graph(), snap.Reverse(), snap.Epoch(), qs)
}

// acquireVariable trusts the caller to have derived the value.
func acquireVariable(p hcindex.Provider, g, gr *graph.Graph, epoch uint64, qs []query.Query) *hcindex.Index {
	return p.Acquire(g, gr, epoch, qs)
}

// optionsConstant freezes the engine's epoch in a composite literal.
func optionsConstant() batchenum.Options {
	return batchenum.Options{
		Epoch: 7, // want `constant 7 as Epoch field`
	}
}

// optionsOmitted is how a static-graph engine says epoch zero: by not
// saying anything.
func optionsOmitted() batchenum.Options {
	return batchenum.Options{}
}

// optionsDerived threads the snapshot's epoch through.
func optionsDerived(snap *store.Snapshot) batchenum.Options {
	opts := batchenum.Options{Epoch: snap.Epoch()}
	opts.Epoch = snap.Epoch()
	return opts
}

// assignConstant rebinds an existing options value to a frozen epoch.
func assignConstant(opts batchenum.Options) batchenum.Options {
	opts.Epoch = 3 // want `constant 3 as Epoch field`
	return opts
}
