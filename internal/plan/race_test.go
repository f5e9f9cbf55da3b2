//go:build race

package plan

func init() { raceEnabled = true }
