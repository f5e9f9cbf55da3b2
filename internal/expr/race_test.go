//go:build race

package expr

func init() { raceEnabled = true }
