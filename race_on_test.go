//go:build race

package hcpath

// raceEnabled lets allocation-measuring tests skip under -race, where
// sync.Pool deliberately drops a quarter of all Puts and pooled scratch
// therefore reallocates by design.
const raceEnabled = true
