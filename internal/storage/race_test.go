//go:build race

package storage

func init() { raceEnabled = true }
