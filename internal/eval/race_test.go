//go:build race

package eval

func init() { raceEnabled = true }
