//go:build race

package consistency

func init() { raceEnabled = true }
