// Command mqshell is a small interactive shell over a demo minequery
// database: a customers table with a trained decision-tree and naive
// Bayes model, ready for PREDICTION JOIN queries.
//
// Usage:
//
//	mqshell                              # starts with the demo database
//	mqshell -cluster http://host:7654    # attach to a live coordinator
//
// Commands:
//
//	SELECT ...          # run a query (the dialect of internal/sqlparse)
//	.explain SELECT ..  # show the plan and envelope rewrites
//	.schema             # list tables and models
//	.subscribe SELECT . # register a standing query over the write stream
//	.unsubscribe N      # remove a standing query by id
//	.subscriptions      # list standing queries with match/drop counters
//	.notifications      # drain pending standing-query matches
//	\shards             # (-cluster) shard map, breaker state, last epoch
//	.quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"minequery"
	"minequery/internal/demo"
)

func main() {
	clusterURL := flag.String("cluster", "", "coordinator base URL; run against a live cluster instead of the embedded demo engine")
	flag.Parse()

	if *clusterURL != "" {
		cc := newClusterClient(*clusterURL)
		ci, err := cc.info()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cluster:", err)
			os.Exit(1)
		}
		fmt.Printf("minequery shell — attached to coordinator %s (%d shards, %s on %s)\n",
			*clusterURL, len(ci.Shards), ci.Mode, ci.Column)
		fmt.Println(`try: \shards, or a SELECT over the sharded table`)
		sc := bufio.NewScanner(os.Stdin)
		cc.repl(func() (string, bool) {
			fmt.Print("mq> ")
			if !sc.Scan() {
				return "", false
			}
			return strings.TrimSpace(sc.Text()), true
		})
		return
	}

	eng := minequery.New()
	if err := demo.Seed(eng, 30000); err != nil {
		fmt.Fprintln(os.Stderr, "setup:", err)
		os.Exit(1)
	}
	fmt.Println("minequery shell — demo database loaded (table: customers; models: risk_tree, seg_bayes)")
	fmt.Println(`try: SELECT * FROM customers PREDICTION JOIN risk_tree AS m ON m.age = customers.age AND m.income = customers.income WHERE m.risk = 'vip' LIMIT 5`)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("mq> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			return
		case line == ".schema":
			fmt.Println("table customers(id INT, age INT, income INT, visits INT, segment TEXT)")
			fmt.Println("model risk_tree  (decision tree over age, income; predicts risk)")
			fmt.Println("model seg_bayes  (naive Bayes over age, income; predicts segment)")
		case strings.HasPrefix(line, ".explain "):
			out, err := eng.Explain(strings.TrimPrefix(line, ".explain "))
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Print(out)
			}
		case strings.HasPrefix(line, ".subscribe "):
			id, err := eng.Subscribe(strings.TrimPrefix(line, ".subscribe "))
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("subscription %d registered; matching writes queue on .notifications\n", id)
		case strings.HasPrefix(line, ".unsubscribe "):
			var id int64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, ".unsubscribe "), "%d", &id); err != nil {
				fmt.Println("error: .unsubscribe needs a numeric subscription id")
				break
			}
			if err := eng.Unsubscribe(id); err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("subscription %d removed\n", id)
		case line == ".subscriptions":
			subs := eng.Subscriptions()
			if len(subs) == 0 {
				fmt.Println("no standing queries registered")
				break
			}
			for _, s := range subs {
				fmt.Printf("[%d] %s  (matches %d, dropped %d)\n", s.ID, s.SQL, s.Matches, s.Dropped)
				if s.Err != "" {
					fmt.Printf("    broken: %s\n", s.Err)
				}
			}
			st := eng.StandingStats()
			fmt.Printf("-- %d registered, %d evals, %d model calls, %d recompiles\n",
				st.Registered, st.Evals, st.ModelCalls, st.Recompiles)
		case line == ".notifications":
			printNotifications(eng)
		case isWriteStatement(line):
			res, err := eng.Exec(context.Background(), line)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			printExecResult(res)
		default:
			res, err := eng.Query(context.Background(), line)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Println(strings.Join(res.ColumnNames(), " | "))
			for i, row := range res.Rows {
				if i >= 20 {
					fmt.Printf("... (%d rows total)\n", len(res.Rows))
					break
				}
				fmt.Println(row)
			}
			fmt.Printf("-- %d rows, access path %s, cost %.1f units\n",
				len(res.Rows), res.AccessPath, res.Stats.CostUnits)
		}
		fmt.Print("mq> ")
	}
}

// isWriteStatement routes INSERT/UPDATE/DELETE/CREATE MODEL lines to
// the engine's write path instead of the query path.
func isWriteStatement(line string) bool {
	head := strings.ToLower(line)
	for _, p := range []string{"insert", "update", "delete", "create"} {
		if strings.HasPrefix(head, p) {
			return true
		}
	}
	return false
}

// printNotifications drains whatever standing-query matches are queued
// right now — a non-blocking poll, not a long wait: the shell is
// interactive, so an empty queue just says so.
func printNotifications(eng *minequery.Engine) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	total := 0
	for {
		ns, err := eng.Notifications(ctx, 100)
		if err != nil {
			break
		}
		for _, n := range ns {
			fmt.Printf("[sub %d] %s(%s): %v\n", n.SubID, n.Table, strings.Join(n.Columns, ", "), n.Row)
		}
		total += len(ns)
	}
	if total == 0 {
		fmt.Println("no pending notifications")
	} else {
		fmt.Printf("-- %d notifications\n", total)
	}
}

// printExecResult renders one write statement's outcome.
func printExecResult(res *minequery.ExecResult) {
	if res.Model != nil {
		fmt.Printf("model %s trained (%d classes, version %d)\n",
			res.Model.Name, len(res.Model.Classes), res.Model.Version)
	} else {
		fmt.Printf("%s: %d rows affected\n", res.Statement, res.RowsAffected)
	}
	if len(res.Retrained) > 0 {
		fmt.Printf("-- retrained: %s\n", strings.Join(res.Retrained, ", "))
	}
}
