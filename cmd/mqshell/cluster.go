package main

// Cluster mode: `mqshell -cluster http://host:port` attaches the shell
// to a live coordinator instead of an embedded engine. Queries go
// through POST /v1/execute (so answers reflect the whole fleet, shard
// pruning included), `.explain` through POST /v1/explain-analyze, and
// the `\shards` meta-command renders GET /v1/cluster: the shard map,
// each shard's breaker state, and the last catalog epoch the
// coordinator observed there.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"minequery/internal/wire"
)

type clusterClient struct {
	base string
	http *http.Client
}

func newClusterClient(base string) *clusterClient {
	return &clusterClient{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 60 * time.Second},
	}
}

// call runs one round trip against the coordinator, decoding a 200
// answer into a fresh T; a non-200 answer comes back as the *wire.Error
// its envelope described.
func call[T any](c *clusterClient, method, path string, body any) (*T, error) {
	out := new(T)
	if err := wire.Call(context.Background(), c.http, method, c.base+path, body, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *clusterClient) exec(sql string) (*wire.CoordExecuteResponse, error) {
	return call[wire.CoordExecuteResponse](c, "POST", "/v1/execute", wire.ExecuteRequest{SQL: sql})
}

func (c *clusterClient) execWrite(sql string) (*wire.StatementResult, error) {
	return call[wire.StatementResult](c, "POST", "/v1/exec", wire.ExecRequest{SQL: sql})
}

func (c *clusterClient) explainAnalyze(sql string) (string, error) {
	res, err := call[wire.CoordExplainResponse](c, "POST", "/v1/explain-analyze", wire.ExplainAnalyzeRequest{SQL: sql})
	if err != nil {
		return "", err
	}
	return res.Analyze, nil
}

func (c *clusterClient) info() (*wire.ClusterResponse, error) {
	return call[wire.ClusterResponse](c, "GET", "/v1/cluster", nil)
}

// printShards renders the \shards table.
func printShards(ci *wire.ClusterResponse) {
	fmt.Printf("cluster: table=%s mode=%s column=%s shards=%d\n",
		ci.Table, ci.Mode, ci.Column, len(ci.Shards))
	fmt.Println("  id  addr                                  range              breaker    last-epoch  models")
	for _, s := range ci.Shards {
		rng := s.Range
		if rng == "" {
			rng = "(hash)"
		}
		epoch := "unknown"
		if s.LastEpoch >= 0 {
			epoch = fmt.Sprintf("%d", s.LastEpoch)
		}
		fmt.Printf("  %-3d %-37s %-18s %-10s %-11s %d\n",
			s.ID, s.Addr, rng, s.Breaker, epoch, s.Models)
	}
	if len(ci.Prepared) > 0 {
		fmt.Printf("prepared statements: %d\n", len(ci.Prepared))
		for _, p := range ci.Prepared {
			fmt.Printf("  %-6s shards=%d  %s\n", p.StatementID, p.ShardsPrepared, truncate(p.Norm, 70))
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// clusterHeader renders the column header. When the coordinator's
// self-describing schema marks aggregate columns, each name carries
// its kind (count(*):INT) so grouped answers read unambiguously;
// plain selects keep the bare name header the shell always had.
func clusterHeader(res *wire.CoordExecuteResponse) string {
	hasAgg := false
	for _, c := range res.Schema {
		if c.Source == "aggregate" {
			hasAgg = true
			break
		}
	}
	if !hasAgg {
		return strings.Join(res.Columns, " | ")
	}
	parts := make([]string, len(res.Schema))
	for i, c := range res.Schema {
		parts[i] = c.Name + ":" + c.Kind
	}
	return strings.Join(parts, " | ")
}

// formatClusterRow renders one wire row the way the embedded shell
// renders a Tuple: bracketed, space-separated values.
func formatClusterRow(row []any) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range row {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch x := v.(type) {
		case nil:
			b.WriteString("NULL")
		case json.Number:
			b.WriteString(x.String())
		case string:
			b.WriteString(x)
		default:
			fmt.Fprintf(&b, "%v", x)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// clusterREPL is the shell loop in -cluster mode.
func (c *clusterClient) repl(readLine func() (string, bool)) {
	for {
		line, ok := readLine()
		if !ok {
			return
		}
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			return
		case line == `\shards` || line == ".shards":
			ci, err := c.info()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			printShards(ci)
		case strings.HasPrefix(line, ".explain "):
			out, err := c.explainAnalyze(strings.TrimPrefix(line, ".explain "))
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Print(out)
				if !strings.HasSuffix(out, "\n") {
					fmt.Println()
				}
			}
		case line == ".schema":
			ci, err := c.info()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("sharded table %s (%s on %s, %d shards) — run \\shards for the map\n",
				ci.Table, ci.Mode, ci.Column, len(ci.Shards))
		case isWriteStatement(line):
			res, err := c.execWrite(line)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("%s: %d rows affected across %d shards\n",
				res.Statement, res.RowsAffected, res.ShardsWritten)
			if len(res.Retrained) > 0 {
				fmt.Printf("-- retrained: %s\n", strings.Join(res.Retrained, ", "))
			}
			for _, re := range res.RetrainErrors {
				fmt.Printf("-- shard %d retrain failed (rows are committed, do not re-issue): %s\n", re.Shard, re.Error)
			}
			for _, m := range res.Models {
				fmt.Printf("-- shard %d trained %s: %d classes, version %d\n", m.Shard, m.Name, m.Classes, m.Version)
			}
		default:
			res, err := c.exec(line)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			rows, err := res.Rows.Cells()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Println(clusterHeader(res))
			for i, row := range rows {
				if i >= 20 {
					fmt.Printf("... (%d rows total)\n", len(rows))
					break
				}
				fmt.Println(formatClusterRow(row))
			}
			fmt.Printf("-- %d rows, shards planned=%d pruned=%d queried=%d",
				res.RowCount, res.Shards.Planned, res.Shards.Pruned, res.Shards.Queried)
			if res.AggMerges > 0 {
				fmt.Printf(", agg merges=%d", res.AggMerges)
			}
			if res.Retries > 0 {
				fmt.Printf(", retries=%d", res.Retries)
			}
			fmt.Println()
			if res.Degraded {
				fmt.Printf("!! DEGRADED: missing shards %v\n", res.MissingShards)
				for _, n := range res.Notes {
					fmt.Println("!!", n)
				}
			}
		}
	}
}
