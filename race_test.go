//go:build race

package spanners

func init() { raceEnabled = true }
