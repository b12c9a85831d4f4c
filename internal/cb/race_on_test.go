//go:build race

package cb

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so allocation counts that rest on recycling are not held.
const raceEnabled = true
