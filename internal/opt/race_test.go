//go:build race

package opt

func init() { raceEnabled = true }
