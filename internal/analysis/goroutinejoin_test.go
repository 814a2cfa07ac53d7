package analysis

import (
	"testing"
)

// TestGoroutineJoinFixture proves the analyzer flags goroutines with no
// reachable join or cancellation (including the two-hop signal-to-nobody
// case only the transitive summary can see) and accepts the WaitGroup
// fan-in through a helper's Done, completion channels, ctx-done selects,
// and spawner-side Waits.
func TestGoroutineJoinFixture(t *testing.T) {
	runFixture(t, GoroutineJoin, "gojoin")
}
