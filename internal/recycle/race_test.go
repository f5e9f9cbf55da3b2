//go:build race

package recycle

func init() { raceEnabled = true }
