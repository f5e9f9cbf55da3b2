package main

// Cluster mode: `mqshell -cluster http://host:port` attaches the shell
// to a live coordinator instead of an embedded engine. Queries go
// through POST /v1/execute (so answers reflect the whole fleet, shard
// pruning included), `.explain` through POST /v1/explain-analyze, and
// the `\shards` meta-command renders GET /v1/cluster: the shard map,
// each shard's breaker state, and the last catalog epoch the
// coordinator observed there.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
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

type clusterErrorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

type clusterExecResult struct {
	Columns []string `json:"columns"`
	Schema  []struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Source string `json:"source"`
	} `json:"schema"`
	Rows      [][]any `json:"rows"`
	RowCount  int     `json:"row_count"`
	AggMerges int64   `json:"agg_partial_merges"`
	Shards    struct {
		Planned  int `json:"planned"`
		Pruned   int `json:"pruned"`
		Queried  int `json:"queried"`
		Degraded int `json:"degraded"`
	} `json:"shards"`
	Degraded      bool     `json:"degraded"`
	MissingShards []int    `json:"missing_shards"`
	Notes         []string `json:"notes"`
	Retries       int64    `json:"retries"`
	Epoch         int64    `json:"epoch"`
}

type clusterShardStatus struct {
	ID        int    `json:"id"`
	Addr      string `json:"addr"`
	Breaker   string `json:"breaker"`
	LastEpoch int64  `json:"last_epoch"`
	Models    int    `json:"models"`
	Range     string `json:"range"`
}

type clusterInfo struct {
	Table    string               `json:"table"`
	Column   string               `json:"column"`
	Mode     string               `json:"mode"`
	Shards   []clusterShardStatus `json:"shards"`
	Prepared []struct {
		StatementID    string `json:"statement_id"`
		Cached         bool   `json:"cached"`
		Norm           string `json:"norm"`
		ShardsPrepared int    `json:"shards_prepared"`
	} `json:"prepared"`
}

// call POSTs (or GETs, when body is nil) and decodes into out,
// surfacing the coordinator's error envelope as a plain error.
func (c *clusterClient) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("coordinator unreachable: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var env clusterErrorEnvelope
		if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
			return fmt.Errorf("%s: %s", env.Error.Code, env.Error.Message)
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	return dec.Decode(out)
}

func (c *clusterClient) exec(sql string) (*clusterExecResult, error) {
	var res clusterExecResult
	if err := c.call("POST", "/v1/execute", map[string]string{"sql": sql}, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

type clusterWriteResult struct {
	Statement     string   `json:"statement"`
	Table         string   `json:"table"`
	RowsAffected  int64    `json:"rows_affected"`
	ShardsWritten int      `json:"shards_written"`
	Retrained     []string `json:"retrained"`
	RetrainErrors []struct {
		Shard int    `json:"shard"`
		Error string `json:"error"`
	} `json:"retrain_errors"`
}

func (c *clusterClient) execWrite(sql string) (*clusterWriteResult, error) {
	var res clusterWriteResult
	if err := c.call("POST", "/v1/exec", map[string]string{"sql": sql}, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (c *clusterClient) explainAnalyze(sql string) (string, error) {
	var res struct {
		Analyze string `json:"analyze"`
	}
	if err := c.call("POST", "/v1/explain-analyze", map[string]string{"sql": sql}, &res); err != nil {
		return "", err
	}
	return res.Analyze, nil
}

func (c *clusterClient) info() (*clusterInfo, error) {
	var res clusterInfo
	if err := c.call("GET", "/v1/cluster", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// printShards renders the \shards table.
func printShards(ci *clusterInfo) {
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
func clusterHeader(res *clusterExecResult) string {
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
		default:
			res, err := c.exec(line)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Println(clusterHeader(res))
			for i, row := range res.Rows {
				if i >= 20 {
					fmt.Printf("... (%d rows total)\n", len(res.Rows))
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
