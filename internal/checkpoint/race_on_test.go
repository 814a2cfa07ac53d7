//go:build race

package checkpoint

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
