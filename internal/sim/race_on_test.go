//go:build race

package sim

// raceEnabled: the race detector allocates on its own, so the allocation
// counts are taken without it.
const raceEnabled = true
