//go:build race

package dtree

func init() { raceEnabled = true }
