package main

// Cluster flags for minequeryd: `-coord` turns the process into a
// coordinator fanning out over `-shard-addrs`, and `-demo-shard i/n`
// seeds a shard daemon holding slice i of the demo rows (internal/demo).
// Both build their shard map from the same flags.

import (
	"fmt"
	"strconv"
	"strings"

	"minequery"
	"minequery/internal/cluster"
)

// parseBounds parses "3,6" into range-split values.
func parseBounds(s string) ([]minequery.Value, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]minequery.Value, len(parts))
	for i, p := range parts {
		n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bound %q: %w", p, err)
		}
		out[i] = minequery.Int(n)
	}
	return out, nil
}

// parseAddrs splits a comma-separated address list.
func parseAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// buildShardMap assembles the shard map from the cluster flags.
func buildShardMap(table, column, mode, boundsCSV string, addrs []string) (*cluster.Map, error) {
	switch mode {
	case "range":
		bounds, err := parseBounds(boundsCSV)
		if err != nil {
			return nil, err
		}
		return cluster.NewRangeMap(table, column, bounds, addrs)
	case "hash":
		return cluster.NewHashMap(table, column, addrs)
	}
	return nil, fmt.Errorf("unknown -shard-mode %q (range or hash)", mode)
}

// parseShardSlice parses "-demo-shard i/n" into (i, n).
func parseShardSlice(s string) (int, int, error) {
	var i, n int
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("-demo-shard wants i/n (e.g. 0/3): %w", err)
	}
	if n <= 0 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-demo-shard %d/%d out of range", i, n)
	}
	return i, n, nil
}
