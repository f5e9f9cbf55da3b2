//go:build race

package minequery

func init() { raceEnabled = true }
