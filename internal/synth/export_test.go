package synth

// Oracles for the external release tests.
var (
	RoundToCountsReference = roundToCountsReference
	TieStraddlesCut        = tieStraddlesCut
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// RaceEnabled reports a -race build to the external tests.
func RaceEnabled() bool { return raceEnabled }
