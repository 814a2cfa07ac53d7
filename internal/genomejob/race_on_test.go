//go:build race

package genomejob

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
