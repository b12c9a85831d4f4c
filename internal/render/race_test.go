//go:build race

package render

// The differential tests run one goroutine over millions of pixels; under
// the race detector they take the short sizes.
func init() { underRace = true }
