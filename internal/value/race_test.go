//go:build race

package value

func init() { raceEnabled = true }
