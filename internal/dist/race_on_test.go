//go:build race

package dist

// raceEnabled: the race detector makes a headless flight about ten times
// slower, so the tests that fly a whole campaign fly its head instead.
const raceEnabled = true
