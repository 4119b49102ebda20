//go:build race

package synth

func init() { raceEnabled = true }
