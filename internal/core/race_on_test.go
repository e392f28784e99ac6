//go:build race

package core

// Under the race detector sync.Pool deliberately drops a quarter of Puts
// (see sync/pool.go), so a pooled frame is sometimes a fresh allocation.
// Tests that assert zero allocations skip that assertion when this is set.
const raceEnabled = true
