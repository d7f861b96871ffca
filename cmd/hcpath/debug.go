package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	hcpath "repro"
)

// debugView is what /debug/totals renders: the running mode's name and
// a reader of its lifetime totals, which the mode installs once what
// it counts exists. Until then the totals render as null.
type debugView struct {
	mu     sync.Mutex
	mode   string
	totals func() any
}

// debug is the process's one view; every mode sets it, whether or not
// -debugaddr serves it.
var debug debugView

// set installs the mode's name and totals reader.
func (d *debugView) set(mode string, totals func() any) {
	d.mu.Lock()
	d.mode, d.totals = mode, totals
	d.mu.Unlock()
}

// ServeHTTP writes {"mode": …, "totals": …} as JSON.
func (d *debugView) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	mode, totals := d.mode, d.totals
	d.mu.Unlock()
	body := struct {
		Mode   string `json:"mode"`
		Totals any    `json:"totals"`
	}{Mode: mode}
	if totals != nil {
		body.Totals = totals()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// serviceTotals reads a service's merged totals and, on a sharded or
// remote deployment, each worker's as "Shards" (over the stats RPC
// under -connect).
func serviceTotals(svc *hcpath.Service) func() any {
	return func() any {
		return struct {
			hcpath.ServiceTotals
			Shards []hcpath.ServiceTotals `json:",omitempty"`
		}{svc.Totals(), svc.ShardTotals()}
	}
}

// serveDebug listens on addr and serves, for the life of the process,
// net/http/pprof under /debug/pprof/ and the debug view at
// /debug/totals. It returns the bound address, so ":0" picks a port.
func serveDebug(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/totals", &debug)
	go http.Serve(ln, mux)
	return ln.Addr(), nil
}
