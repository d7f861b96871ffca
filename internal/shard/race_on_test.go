//go:build race

package shard

// raceEnabled lets allocation-measuring tests skip under -race, where
// sync.Pool deliberately drops a quarter of all Puts and pooled frames
// therefore reallocate by design.
const raceEnabled = true
