package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	hcpath "repro"
)

// system is one built deployment of the program under test, ready to
// take the workload's operations. Exactly one of eng and svc is set.
type system struct {
	spec workloadSpec
	g    *hcpath.Graph
	eng  *hcpath.Engine
	svc  *hcpath.Service

	// The loaded inputs, parsed from the generated files during set-up.
	batches [][]qrec // offline: the batches; serving: one batch = the stream
	updates []updateBlock

	dataDir string // durable deployments

	// Wire deployment: the in-process workers and their counting
	// listeners, closed after the coordinator.
	servers   []*hcpath.ShardServer
	listeners []*countingListener
	serveWG   sync.WaitGroup

	// Set-up decomposition (per-layer metrics).
	graphBuild  time.Duration // hcpath.NewGraph (CSR + reverse)
	connectTime time.Duration // ConnectService, wire only
}

// deployOptions are the harness's additions to the library defaults:
// the observation hook and the data directory. Everything else a
// service runs with is what users get from nil options.
type deployOptions struct {
	onBatch func(hcpath.BatchStats)
	outDir  string
}

// build stands the workload's deployment up from the generated input
// files. It is the timed body of setup_s together with warmUp.
func build(in *inputs, opt deployOptions) (*system, error) {
	w := in.spec
	sys := &system{spec: w}
	var err error
	if sys.batches, err = loadQueries(in.queriesPath); err != nil {
		return nil, err
	}
	if len(sys.batches) == 0 || len(sys.batches[0]) == 0 {
		return nil, fmt.Errorf("%s: no queries", in.queriesPath)
	}
	if in.updatesPath != "" {
		if sys.updates, err = loadUpdates(in.updatesPath); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	if sys.g, err = hcpath.NewGraph(in.g.NumVertices(), in.edges); err != nil {
		return nil, err
	}
	sys.graphBuild = time.Since(t0)

	switch w.Deploy {
	case deployEngine:
		sys.eng = hcpath.NewEngine(sys.g, nil)
	case deployService:
		sys.svc = hcpath.NewService(sys.g, optionsOrNil(hcpath.ServiceOptions{OnBatch: opt.onBatch}))
	case deployShards:
		sys.svc = hcpath.NewService(sys.g, &hcpath.ServiceOptions{Shards: 2, OnBatch: opt.onBatch})
	case deployDurable:
		sys.dataDir = filepath.Join(opt.outDir, w.Name+".data")
		if err := os.RemoveAll(sys.dataDir); err != nil {
			return nil, err
		}
		// Fsync is left at its zero value, FsyncAlways: an acknowledged
		// update survives any crash. The sandbox's fsync is what is timed.
		sys.svc, err = hcpath.OpenService(sys.g, &hcpath.ServiceOptions{DataDir: sys.dataDir, OnBatch: opt.onBatch})
		if err != nil {
			return nil, err
		}
	case deployCluster:
		if err := sys.startCluster(opt); err != nil {
			sys.close()
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown deployment %q", w.Deploy)
	}
	return sys, nil
}

// optionsOrNil passes nil — the documented way to ask for defaults —
// unless the harness has a hook to install.
func optionsOrNil(o hcpath.ServiceOptions) *hcpath.ServiceOptions {
	if o.OnBatch == nil {
		return nil
	}
	return &o
}

// startCluster runs two shard workers in this process behind real
// loopback TCP listeners and connects a coordinator to them. The
// workers share this process's one immutable graph; each builds its own
// store, cache and batching pipeline over it, as separate processes
// would.
func (sys *system) startCluster(opt deployOptions) error {
	const shards = 2
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		srv, err := hcpath.NewShardServer(sys.g, optionsOrNil(hcpath.ServiceOptions{OnBatch: opt.onBatch}), i, shards)
		if err != nil {
			return err
		}
		sys.servers = append(sys.servers, srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		cl := &countingListener{Listener: ln}
		sys.listeners = append(sys.listeners, cl)
		addrs[i] = ln.Addr().String()
		sys.serveWG.Add(1)
		go func() {
			defer sys.serveWG.Done()
			// Serve returns nil after Close; a listener error surfaces as
			// failed operations on the coordinator side.
			_ = srv.Serve(cl)
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	svc, err := hcpath.ConnectService(ctx, addrs, nil)
	if err != nil {
		return err
	}
	sys.connectTime = time.Since(t0)
	sys.svc = svc
	return nil
}

// close tears the deployment down and waits for everything it started.
func (sys *system) close() error {
	var first error
	if sys.svc != nil {
		first = sys.svc.Close()
		sys.svc = nil
	}
	for _, srv := range sys.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, l := range sys.listeners {
		// Already closed by its server's Close unless that server never
		// reached Serve; closing twice only returns an error.
		_ = l.Close()
	}
	sys.serveWG.Wait()
	sys.servers = nil
	return first
}

// wireBytes sums the bytes that crossed the workers' listeners, both
// directions.
func (sys *system) wireBytes() int64 {
	var n int64
	for _, l := range sys.listeners {
		n += l.bytes.Load()
	}
	return n
}

// countingListener wraps accepted connections to count the bytes read
// and written through them — the only outside-in view of wire volume.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, bytes: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
