//go:build race

package vec_test

func init() { raceEnabled = true }
