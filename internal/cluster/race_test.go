//go:build race

package cluster_test

func init() { raceEnabled = true }
