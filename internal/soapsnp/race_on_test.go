//go:build race

package soapsnp

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
