//go:build !race

package cb

const raceEnabled = false
