//go:build race

package wal

func init() { raceEnabled = true }
