//go:build !race

package hcpath

const raceEnabled = false
