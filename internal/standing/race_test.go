//go:build race

package standing

func init() { raceEnabled = true }
