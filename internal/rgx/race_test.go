//go:build race

package rgx

func init() { raceEnabled = true }
