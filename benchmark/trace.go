package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hcpath "repro"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the span that caused this one (zero for
// the operation's root). Times are nanoseconds since the tracer began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer is the harness's span recorder. It records around the calls
// the harness makes into the program and synthesises children from the
// durations the public API already returns (Stats, BatchStats); spans
// inside the program are a later change. Spans stay in memory until the
// run ends. A nil *tracer records nothing, so the untraced run pays one
// nil check per operation.
type tracer struct {
	began  time.Time
	nextID atomic.Int64

	// Sharded by operation so 64 closed-loop callers do not serialise on
	// one lock.
	shards [32]struct {
		mu    sync.Mutex
		spans []span
	}

	batchMu sync.Mutex
	batches []hcpath.BatchStats // every micro-batch OnBatch reported
}

func newTracer() *tracer { return &tracer{began: time.Now()} }

func (tr *tracer) id() int64 { return tr.nextID.Add(1) }

func (tr *tracer) put(s span) {
	sh := &tr.shards[s.Op%int64(len(tr.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

func (tr *tracer) at(t time.Time) int64 { return int64(t.Sub(tr.began)) }

// root records an operation's root span and returns its id, which is
// also the operation id its children carry.
func (tr *tracer) root(name string, t0, t1 time.Time) int64 {
	id := tr.id()
	tr.put(span{ID: id, Op: id, Name: name, Start: tr.at(t0), End: tr.at(t1)})
	return id
}

// child records a span under parent covering [start, start+d).
func (tr *tracer) child(op, parent int64, name string, start int64, d time.Duration) (id, end int64) {
	id, end = tr.id(), start+int64(d)
	tr.put(span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id, end
}

// timed runs fn as a root operation with one child span around it: the
// shape of every layer replay (op "replay", child "<layer>.<call>").
func (tr *tracer) timed(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	if tr != nil {
		op := tr.root("replay", t0, t1)
		tr.child(op, op, name, tr.at(t0), t1.Sub(t0))
	}
	return t1.Sub(t0)
}

// batchOp records one offline operation: the Engine.Count call and,
// inside it, the four phases its Stats report, laid end to end from the
// call's start (the engine runs them in that order). What the phases do
// not cover is the call's self time: validation, conversion, sinks.
func (tr *tracer) batchOp(t0, t1 time.Time, st hcpath.Stats) {
	if tr == nil {
		return
	}
	op := tr.root("batch", t0, t1)
	call, _ := tr.child(op, op, "hcpath.Engine.Count", tr.at(t0), t1.Sub(t0))
	at := tr.at(t0)
	_, at = tr.child(op, call, "hcindex.acquire", at, time.Duration(st.IndexNanos))
	_, at = tr.child(op, call, "cluster.queries", at, time.Duration(st.ClusterNanos))
	_, at = tr.child(op, call, "sharegraph.detect", at, time.Duration(st.DetectNanos))
	tr.child(op, call, "batchenum.enumerate", at, time.Duration(st.EnumerateNanos))
}

// queryOp records one served query: due time to reply as the root, the
// Service.Query call inside it, and inside that the micro-batch's queue
// wait and engine time as the reply's BatchStats report them, laid back
// from the reply (the batch's enumeration ends when callers resolve).
func (tr *tracer) queryOp(phaseStart time.Time, o *opSample) {
	if tr == nil {
		return
	}
	due, sent, done := phaseStart.Add(o.due), phaseStart.Add(o.sent), phaseStart.Add(o.done)
	op := tr.root("query", due, done)
	call, _ := tr.child(op, op, "hcpath.Service.Query", tr.at(sent), done.Sub(sent))
	enum := time.Duration(o.batch.EnumerateNanos)
	wait := time.Duration(o.batch.WaitNanos)
	if enum+wait > done.Sub(sent) { // this query joined its batch late
		wait = done.Sub(sent) - enum
		if wait < 0 {
			wait, enum = 0, done.Sub(sent)
		}
	}
	enumStart := tr.at(done) - int64(enum)
	tr.child(op, call, "service.enumerate", enumStart, enum)
	tr.child(op, call, "service.queue_wait", enumStart-int64(wait), wait)
}

// updateOp records one ApplyUpdates call of the churn writer.
func (tr *tracer) updateOp(t0, t1 time.Time) {
	if tr == nil {
		return
	}
	op := tr.root("update", t0, t1)
	tr.child(op, op, "hcpath.Service.ApplyUpdates", tr.at(t0), t1.Sub(t0))
}

// onBatch is the ServiceOptions.OnBatch hook of the traced run. Calls
// are serialised per service, not across the workers of a sharded
// deployment, hence the lock.
func (tr *tracer) onBatch(bs hcpath.BatchStats) {
	tr.batchMu.Lock()
	tr.batches = append(tr.batches, bs)
	tr.batchMu.Unlock()
}

// takeBatches returns and clears the micro-batches observed so far.
func (tr *tracer) takeBatches() []hcpath.BatchStats {
	tr.batchMu.Lock()
	defer tr.batchMu.Unlock()
	out := tr.batches
	tr.batches = nil
	return out
}

func (tr *tracer) all() []span {
	var out []span
	for i := range tr.shards {
		sh := &tr.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes computes, per span name, total duration and self time: a
// span's duration minus the part of its interval its children cover
// (children may overlap each other and may stick out of the parent;
// only their union inside the parent counts).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.TotalNs += s.End - s.Start
		lt.SelfNs += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := p.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// maxSpansWritten caps the spans kept in a trace file; the per-name
// aggregation beside them always covers every span recorded.
const maxSpansWritten = 20000

// write dumps the spans and their per-name aggregation as JSON.
func (tr *tracer) write(path string) error {
	spans := tr.all()
	dump := struct {
		Layers map[string]layerTime `json:"layers"`
		Total  int                  `json:"spans_total"`
		Spans  []span               `json:"spans"`
	}{Layers: selfTimes(spans), Total: len(spans), Spans: spans}
	if len(dump.Spans) > maxSpansWritten {
		dump.Spans = dump.Spans[:maxSpansWritten]
	}
	data, err := json.MarshalIndent(dump, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
