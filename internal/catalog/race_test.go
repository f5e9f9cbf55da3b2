//go:build race

package catalog

func init() { raceEnabled = true }
