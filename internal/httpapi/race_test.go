//go:build race

package httpapi

func init() { raceEnabled = true }
