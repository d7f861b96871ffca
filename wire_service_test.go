package hcpath

// Public-API gate for the multi-process deployment: NewShardServer
// workers behind ConnectService must serve exactly the single-process
// service's results, and OpenService with Shards+DataDir must survive
// a warm restart.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

func wireTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraph(6, []Edge{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
		{0, 2}, {1, 3}, {2, 4}, {3, 5}, {5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func wireTestQueries(g *Graph) []Query {
	var qs []Query
	n := VertexID(g.NumVertices())
	for s := VertexID(0); s < n; s++ {
		for u := VertexID(0); u < n; u++ {
			if s != u {
				qs = append(qs, Query{S: s, T: u, K: 4})
			}
		}
	}
	return qs
}

// startWireCluster runs n NewShardServer workers on loopback listeners
// and returns their addresses.
func startWireCluster(t *testing.T, g *Graph, n int, opts *ServiceOptions) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := NewShardServer(g, opts, i, n)
		if err != nil {
			t.Fatalf("NewShardServer(%d): %v", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen worker %d: %v", i, err)
		}
		addrs[i] = ln.Addr().String()
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
	}
	return addrs
}

func TestConnectServiceDifferential(t *testing.T) {
	g := wireTestGraph(t)
	qs := wireTestQueries(g)

	single := NewService(g, nil)
	want := servicePaths(t, single, qs)
	single.Close()

	addrs := startWireCluster(t, g, 2, nil)
	remote, err := ConnectService(context.Background(), addrs, nil)
	if err != nil {
		t.Fatalf("ConnectService: %v", err)
	}
	defer remote.Close()

	if remote.NumShards() != 2 {
		t.Errorf("NumShards = %d, want 2", remote.NumShards())
	}
	got := servicePaths(t, remote, qs)
	for i := range want {
		diffQuery(t, "wire", i, want[i], got[i])
	}

	// Updates fan out over the wire and stay epoch-aligned.
	if _, err := remote.ApplyUpdates([]Edge{{1, 5}}, []Edge{{0, 1}}); err != nil {
		t.Fatalf("ApplyUpdates over the wire: %v", err)
	}
	ws := remote.Wire()
	if len(ws) != 2 {
		t.Fatalf("Wire() reported %d workers, want 2", len(ws))
	}
	for _, w := range ws {
		if w.RPCs == 0 {
			t.Errorf("worker %s saw no RPCs", w.Addr)
		}
	}
	per := remote.ShardTotals()
	if len(per) != 2 {
		t.Errorf("ShardTotals() returned %d entries, want 2", len(per))
	}
}

// TestWireDeploymentParity: over the wire every query — cross-shard
// ones included — runs whole on a worker, so the workers' Limit and
// QueryTimeout cut it short exactly as the single-process service
// under the same options would.
func TestWireDeploymentParity(t *testing.T) {
	g := wireTestGraph(t)
	for _, tc := range []struct {
		name string
		opts ServiceOptions
		cut  error // what a query cut short by opts reports
	}{
		{"limit", ServiceOptions{Options: Options{Limit: 1}}, ErrLimitReached},
		{"timeout", ServiceOptions{QueryTimeout: time.Nanosecond}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single := NewService(g, &tc.opts)
			defer single.Close()
			remote, err := ConnectService(context.Background(), startWireCluster(t, g, 2, &tc.opts), nil)
			if err != nil {
				t.Fatalf("ConnectService: %v", err)
			}
			defer remote.Close()

			var cut [2]int // queries cut short, by [single-shard, cross-shard]
			for _, q := range wireTestQueries(g) {
				// One at a time: each query is its own batch on both sides.
				want, _, wantErr := single.Count(context.Background(), q)
				got, _, gotErr := remote.Count(context.Background(), q)
				if got != want || !errors.Is(gotErr, wantErr) || (wantErr == nil) != (gotErr == nil) {
					t.Errorf("%d→%d k=%d: wire cluster answered %d paths, err %v; single process %d paths, err %v",
						q.S, q.T, q.K, got, gotErr, want, wantErr)
				}
				if errors.Is(wantErr, tc.cut) {
					route := 0
					if ShardOf(q.S, 2) != ShardOf(q.T, 2) {
						route = 1
					}
					cut[route]++
				}
			}
			if cut[0] == 0 || cut[1] == 0 {
				t.Fatalf("%d single-shard and %d cross-shard queries were cut short; the case needs both", cut[0], cut[1])
			}
		})
	}
}

func TestDurableShardedServiceRestart(t *testing.T) {
	g := wireTestGraph(t)
	dir := t.TempDir()
	opts := &ServiceOptions{Shards: 2, DataDir: dir}

	svc, err := OpenService(g, opts)
	if err != nil {
		t.Fatalf("OpenService sharded durable: %v", err)
	}
	if _, err := svc.ApplyUpdates([]Edge{{5, 2}, {4, 0}}, []Edge{{0, 1}}); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	pre := svc.State()
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reopened, err := OpenService(nil, opts) // nil graph: disk state must carry it
	if err != nil {
		t.Fatalf("warm restart: %v", err)
	}
	defer reopened.Close()
	if got := reopened.State(); got != pre {
		t.Fatalf("restarted State %+v, want %+v", got, pre)
	}
	if reopened.NumShards() != 2 {
		t.Errorf("restarted NumShards = %d, want 2", reopened.NumShards())
	}
	if _, _, err := reopened.Query(context.Background(), Query{S: 0, T: 4, K: 4}); err != nil {
		t.Errorf("query after warm restart: %v", err)
	}
}
