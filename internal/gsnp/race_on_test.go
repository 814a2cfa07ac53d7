//go:build race

package gsnp

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
