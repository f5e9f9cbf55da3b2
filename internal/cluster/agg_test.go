package cluster_test

// Aggregate scatter-gather: the coordinator pushes partial-aggregate
// execution to every queried shard, merges the un-finalized wire
// states, and finalizes once — so GROUP BY / COUNT / SUM / MIN / MAX /
// AVG answers must be byte-identical (columns, schema, and rows) to a
// single node holding the union of all shards, at any DOP, under shard
// pruning, and in the all-pruned and empty-shard edge cases. SUM/AVG
// over floats would expose any order-dependence in the merge; the exact
// superaccumulator representation is what makes the identity hold.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"minequery"
	"minequery/internal/cluster"
)

// aggMergesOf extracts the coordinator's agg_partial_merges field.
func aggMergesOf(t *testing.T, raw []byte) int64 {
	t.Helper()
	var p struct {
		AggMerges int64 `json:"agg_partial_merges"`
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	return p.AggMerges
}

func TestCoordinatorAggregateByteIdenticalToUnion(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2500, cluster.Config{})
	ch := bootCoordHTTP(t, tc)

	const joinClause = " PREDICTION JOIN seg_tree AS m ON m.age = customers.age AND m.income = customers.income"
	cases := []struct {
		name        string
		sql         string
		wantPruned  int
		wantQueried int
	}{
		{"group-by-shard-column",
			"SELECT income, count(*), sum(visits), avg(visits) FROM customers GROUP BY income", 0, 3},
		{"group-under-pruning",
			"SELECT income, count(*), min(age), max(age) FROM customers WHERE income < 3 GROUP BY income", 2, 1},
		{"scalar-aggregates",
			"SELECT count(*), sum(visits), avg(age), min(id), max(id) FROM customers WHERE age <= 5", 0, 3},
		{"scalar-empty-match",
			// Shard 2 is queried but matches nothing: its empty partial
			// state must still merge into the scalar identity row.
			"SELECT count(*), max(visits) FROM customers WHERE income >= 6 AND age >= 100", 2, 1},
		{"group-by-predicted-column",
			"SELECT m.seg, count(*), avg(income) FROM customers" + joinClause + " GROUP BY m.seg", 0, 3},
		{"all-pruned-grouped",
			"SELECT income, count(*) FROM customers WHERE income < 2 AND income > 5 GROUP BY income", 3, 0},
		{"all-pruned-scalar",
			// Unsatisfiable predicate, zero shards queried: the scalar
			// aggregate still answers with its identity row (count 0,
			// sum NULL) exactly as a single node would.
			"SELECT count(*), sum(visits) FROM customers WHERE income < 2 AND income > 5", 3, 0},
		{"limit-after-finalize",
			"SELECT income, count(*) FROM customers GROUP BY income LIMIT 3", 0, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, dop := range []int{0, 4} {
				p := execBoth(t, ch.URL, tc.unionHTTP.URL, c.sql, dop)
				if p.Shards.Planned != 3 || p.Shards.Pruned != c.wantPruned || p.Shards.Queried != c.wantQueried {
					t.Fatalf("shards planned=%d pruned=%d queried=%d, want 3/%d/%d",
						p.Shards.Planned, p.Shards.Pruned, p.Shards.Queried, c.wantPruned, c.wantQueried)
				}
			}
		})
	}
}

func TestCoordinatorAggregateEnvelopePruning(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2500, cluster.Config{})
	ch := bootCoordHTTP(t, tc)

	// The vip class envelope confines matches to the top income range:
	// the aggregate must be computed from the surviving shard alone and
	// still match the union node byte for byte.
	sql := "SELECT m.seg, count(*), avg(visits) FROM customers" +
		" PREDICTION JOIN seg_tree AS m ON m.age = customers.age AND m.income = customers.income" +
		" WHERE m.seg = 'vip' GROUP BY m.seg"
	st, raw := postJSON(t, ch.URL, "/v1/execute", map[string]any{"sql": sql})
	if st != http.StatusOK {
		t.Fatalf("coord exec: %d %s", st, raw)
	}
	p := execBoth(t, ch.URL, tc.unionHTTP.URL, sql, 0)
	if p.Shards.Pruned == 0 {
		t.Fatalf("envelope did not prune any shard for the aggregate (queried=%d)", p.Shards.Queried)
	}
	if p.RowCount == 0 {
		t.Fatal("vip aggregate returned no groups; envelope pruning is suspect")
	}
	if merges := aggMergesOf(t, raw); merges != int64(p.Shards.Queried) {
		t.Fatalf("agg_partial_merges=%d, want one per queried shard (%d)", merges, p.Shards.Queried)
	}
}

// genClusterAggQuery builds one random aggregate SELECT over the
// harness schema: grouping on income, age, the predicted segment, or
// nothing; 1-3 deduplicated aggregate items; the same predicate mix the
// plain differential sweep uses (so shard pruning engages).
func genClusterAggQuery(r *rand.Rand) string {
	useModel := r.Intn(3) == 0
	var groupCols []string
	if r.Intn(2) == 0 {
		groupCols = append(groupCols, []string{"income", "age"}[r.Intn(2)])
	}
	if useModel && r.Intn(2) == 0 {
		groupCols = append(groupCols, "m.seg")
	}
	pool := []string{
		"count(*)", "count(visits)", "sum(visits)", "avg(visits)",
		"min(age)", "max(age)", "sum(income)", "avg(income)", "min(id)", "max(id)",
	}
	items := append([]string(nil), groupCols...)
	seen := map[string]bool{}
	for i, na := 0, 1+r.Intn(3); i < na; i++ {
		if a := pool[r.Intn(len(pool))]; !seen[a] {
			seen[a] = true
			items = append(items, a)
		}
	}
	var preds []string
	n := 1 + r.Intn(2)
	for i := 0; i < n; i++ {
		switch r.Intn(6) {
		case 0:
			preds = append(preds, fmt.Sprintf("income = %d", r.Intn(8)))
		case 1:
			preds = append(preds, fmt.Sprintf("income < %d", 1+r.Intn(8)))
		case 2:
			preds = append(preds, fmt.Sprintf("income >= %d", r.Intn(8)))
		case 3:
			preds = append(preds, fmt.Sprintf("age <= %d", r.Intn(10)))
		case 4:
			preds = append(preds, fmt.Sprintf("visits < %d", 5+r.Intn(45)))
		default:
			preds = append(preds, fmt.Sprintf("income IN (%d, %d)", r.Intn(8), r.Intn(8)))
		}
	}
	if useModel {
		seg := []string{"'vip'", "'budget'", "'regular'"}[r.Intn(3)]
		preds = append(preds, "m.seg = "+seg)
	}
	op := " AND "
	if r.Intn(3) == 0 {
		op = " OR "
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s FROM customers", strings.Join(items, ", "))
	if useModel {
		b.WriteString(" PREDICTION JOIN seg_tree AS m ON m.age = customers.age AND m.income = customers.income")
	}
	if r.Intn(5) > 0 {
		b.WriteString(" WHERE " + strings.Join(preds, op))
	}
	if len(groupCols) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(groupCols, ", "))
	}
	if r.Intn(8) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", 1+r.Intn(4))
	}
	return b.String()
}

func TestDifferentialAggregateCoordinatorVsUnion(t *testing.T) {
	iterations := 150
	if testing.Short() {
		iterations = 40
	}
	tc := newTestCluster(t, 3, []int64{3, 6}, 2500, cluster.Config{})
	ch := bootCoordHTTP(t, tc)
	unionSession := sessionWithDOP(t, tc.unionHTTP.URL, 4)

	r := rand.New(rand.NewSource(20260811))
	grouped, pruned := 0, 0
	for i := 0; i < iterations; i++ {
		sql := genClusterAggQuery(r)
		dop := 1
		if i%2 == 1 {
			dop = 4
		}
		req := map[string]any{"sql": sql}
		ureq := map[string]any{"sql": sql}
		if dop > 1 {
			req["dop"] = dop
			ureq["session_id"] = unionSession
		}
		cst, craw := postJSON(t, ch.URL, "/v1/execute", req)
		ust, uraw := postJSON(t, tc.unionHTTP.URL, "/v1/execute", ureq)
		if cst != http.StatusOK || ust != http.StatusOK {
			t.Fatalf("iter %d %q: coord=%d union=%d\n%s", i, sql, cst, ust, craw)
		}
		cp, up := decodePayload(t, craw), decodePayload(t, uraw)
		if string(cp.Columns) != string(up.Columns) || string(cp.Schema) != string(up.Schema) ||
			string(cp.Rows) != string(up.Rows) {
			t.Fatalf("iter %d dop %d: coordinator aggregate diverges from union for %q\ncoord (%d rows): %.500s\nunion (%d rows): %.500s",
				i, dop, sql, cp.RowCount, cp.Rows, up.RowCount, up.Rows)
		}
		if cp.Degraded {
			t.Fatalf("iter %d: healthy cluster degraded for %q", i, sql)
		}
		if merges := aggMergesOf(t, craw); merges != int64(cp.Shards.Queried) {
			t.Fatalf("iter %d %q: agg_partial_merges=%d, want %d (one per queried shard)",
				i, sql, merges, cp.Shards.Queried)
		}
		if strings.Contains(sql, "GROUP BY") {
			grouped++
		} else if !strings.Contains(sql, "LIMIT") && cp.RowCount != 1 {
			t.Fatalf("iter %d: ungrouped aggregate %q returned %d rows, want 1", i, sql, cp.RowCount)
		}
		if cp.Shards.Pruned > 0 {
			pruned++
		}
	}
	if grouped == 0 || pruned == 0 {
		t.Fatalf("sweep drifted: %d grouped, %d pruned of %d", grouped, pruned, iterations)
	}
	t.Logf("aggregate sweep: %d iterations (%d grouped, %d with >=1 shard pruned), all byte-identical to the union node", iterations, grouped, pruned)
}

// TestCoordinatorAggregateNullGroupMerges: a model that reads a NULL
// input predicts NULL, so GROUP BY m.seg gets a NULL group. Rows with a
// NULL age, at every income and at a NULL one, sit on every shard and on
// the union node. The tree reads age only at income 7 and income on
// every path, so the shards of income 7 and of a NULL income each send
// a partial NULL group, and the coordinator must merge them into one
// group, byte-identical to the union node's answer, at DOP 0 and 4.
func TestCoordinatorAggregateNullGroupMerges(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2500, cluster.Config{})
	var all []minequery.Tuple
	for i := int64(-1); i < 8; i++ {
		income := minequery.Null()
		if i >= 0 {
			income = minequery.Int(i)
		}
		row := minequery.Tuple{minequery.Int(900000 + i), minequery.Null(),
			income, minequery.Int(i), minequery.Str("regular")}
		all = append(all, row)
		s := tc.shards.ShardFor(row[2])
		if err := tc.engines[s].Insert("customers", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.union.InsertBatch("customers", all); err != nil {
		t.Fatal(err)
	}
	ch := bootCoordHTTP(t, tc)

	const sql = "SELECT m.seg, count(*) FROM customers" +
		" PREDICTION JOIN seg_tree AS m ON m.age = customers.age AND m.income = customers.income" +
		" GROUP BY m.seg"
	nullGroups := func(rows json.RawMessage) (n int) {
		var groups [][]any
		if err := json.Unmarshal(rows, &groups); err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			if g[0] == nil {
				n++
			}
		}
		return n
	}
	withNull := 0
	for _, eng := range tc.engines {
		res, err := eng.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			if r[0].IsNull() {
				withNull++
			}
		}
	}
	if withNull < 2 {
		t.Fatalf("%d shards answer a NULL group, want at least 2 to merge", withNull)
	}
	for _, dop := range []int{0, 4} {
		p := execBoth(t, ch.URL, tc.unionHTTP.URL, sql, dop)
		if n := nullGroups(p.Rows); n != 1 {
			t.Fatalf("dop %d: %d NULL groups, want 1: %s", dop, n, p.Rows)
		}
		req := map[string]any{"sql": sql}
		if dop > 0 {
			req["dop"] = dop
		}
		st, raw := postJSON(t, ch.URL, "/v1/execute", req)
		if st != http.StatusOK {
			t.Fatalf("dop %d: coord exec: %d %s", dop, st, raw)
		}
		if merges := aggMergesOf(t, raw); merges != int64(p.Shards.Queried) || p.Shards.Queried != 3 {
			t.Fatalf("dop %d: agg_partial_merges=%d over %d queried shards, want 3 and 3", dop, merges, p.Shards.Queried)
		}
	}
}
