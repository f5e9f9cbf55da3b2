package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"minequery"
	"minequery/internal/expr"
	"minequery/internal/value"
	"minequery/internal/wire"
)

func mustRangeMap(t *testing.T, bounds []int64, n int) *Map {
	t.Helper()
	bs := make([]value.Value, len(bounds))
	for i, b := range bounds {
		bs[i] = value.Int(b)
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	m, err := NewRangeMap("Customers", "Income", bs, addrs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapValidation(t *testing.T) {
	if _, err := NewRangeMap("t", "c", nil, nil); err == nil {
		t.Fatal("empty address list accepted")
	}
	if _, err := NewRangeMap("t", "c", []value.Value{value.Int(1)}, []string{"http://a"}); err == nil {
		t.Fatal("bound-count mismatch accepted")
	}
	if _, err := NewRangeMap("t", "c", []value.Value{value.Int(5), value.Int(5)},
		[]string{"a", "b", "c"}); err == nil {
		t.Fatal("non-ascending bounds accepted")
	}
	if _, err := NewRangeMap("t", "c", []value.Value{value.Null()},
		[]string{"a", "b"}); err == nil {
		t.Fatal("NULL bound accepted")
	}
	if _, err := NewHashMap("t", "c", []string{"a", "a"}); err == nil {
		t.Fatal("duplicate address accepted")
	}
	if _, err := NewHashMap("", "c", []string{"a"}); err == nil {
		t.Fatal("empty table accepted")
	}
	m := mustRangeMap(t, []int64{3, 6}, 3)
	if m.Table != "customers" || m.Column != "income" {
		t.Fatalf("names not lowercased: %q %q", m.Table, m.Column)
	}
}

func TestShardForRange(t *testing.T) {
	m := mustRangeMap(t, []int64{3, 6}, 3)
	cases := []struct {
		v    value.Value
		want int
	}{
		{value.Null(), 0},
		{value.Int(-5), 0},
		{value.Int(2), 0},
		{value.Int(3), 1}, // bounds are inclusive-low on the next shard
		{value.Int(5), 1},
		{value.Int(6), 2},
		{value.Int(100), 2},
	}
	for _, c := range cases {
		if got := m.ShardFor(c.v); got != c.want {
			t.Errorf("ShardFor(%s) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestShardForHashIsStableAndTotal(t *testing.T) {
	m, err := NewHashMap("t", "k", []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ShardFor(value.Null()); got != 0 {
		t.Fatalf("NULL routed to shard %d, want 0", got)
	}
	hits := make([]int, 3)
	for i := 0; i < 300; i++ {
		s1 := m.ShardFor(value.Int(int64(i)))
		s2 := m.ShardFor(value.Int(int64(i)))
		if s1 != s2 {
			t.Fatalf("hash routing unstable for %d: %d vs %d", i, s1, s2)
		}
		if s1 < 0 || s1 >= 3 {
			t.Fatalf("hash routing out of range: %d", s1)
		}
		hits[s1]++
	}
	for s, n := range hits {
		if n == 0 {
			t.Fatalf("hash routing never used shard %d over 300 keys", s)
		}
	}
}

func TestPruneShardsRange(t *testing.T) {
	m := mustRangeMap(t, []int64{3, 6}, 3)
	eq := func(col string, v int64) expr.Expr {
		return expr.Cmp{Col: col, Op: expr.OpEq, Val: value.Int(v)}
	}
	cases := []struct {
		name string
		pred expr.Expr
		want []bool
	}{
		{"eq-low", eq("income", 1), []bool{true, false, false}},
		{"eq-mid", eq("income", 4), []bool{false, true, false}},
		{"eq-high", eq("income", 7), []bool{false, false, true}},
		{"range-spans", expr.And{Kids: []expr.Expr{
			expr.Cmp{Col: "income", Op: expr.OpGe, Val: value.Int(2)},
			expr.Cmp{Col: "income", Op: expr.OpLt, Val: value.Int(5)},
		}}, []bool{true, true, false}},
		{"other-col", eq("age", 4), []bool{true, true, true}},
		{"contradiction", expr.FalseExpr{}, []bool{false, false, false}},
		{"or-union", expr.Or{Kids: []expr.Expr{eq("income", 0), eq("income", 7)}},
			[]bool{true, false, true}},
		{"true", expr.TrueExpr{}, []bool{true, true, true}},
	}
	for _, c := range cases {
		got := m.PruneShards(c.pred)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: shard %d keep=%v, want %v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func TestPruneShardsHash(t *testing.T) {
	m, err := NewHashMap("t", "K", []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumShards()
	count := func(keep []bool) int {
		c := 0
		for _, k := range keep {
			if k {
				c++
			}
		}
		return c
	}

	// Equality pins exactly the owning bucket.
	v := value.Int(42)
	keep := m.PruneShards(expr.Cmp{Col: "k", Op: expr.OpEq, Val: v})
	if count(keep) != 1 || !keep[m.ShardFor(v)] {
		t.Fatalf("eq pinned %d shards (owner=%d, keep=%v)", count(keep), m.ShardFor(v), keep)
	}
	// IN pins the union of owners.
	keep = m.PruneShards(expr.In{Col: "k", Vals: []value.Value{value.Int(1), value.Int(2), value.Null()}})
	want := make([]bool, n)
	want[m.ShardFor(value.Int(1))] = true
	want[m.ShardFor(value.Int(2))] = true
	for i := range want {
		if keep[i] != want[i] {
			t.Fatalf("in: keep=%v want=%v", keep, want)
		}
	}
	// Ranges cannot pin hash buckets.
	keep = m.PruneShards(expr.Cmp{Col: "k", Op: expr.OpGe, Val: value.Int(5)})
	if count(keep) != n {
		t.Fatalf("range predicate pruned hash shards: %v", keep)
	}
	// NULL-literal comparisons match nothing anywhere.
	keep = m.PruneShards(expr.Cmp{Col: "k", Op: expr.OpEq, Val: value.Null()})
	if count(keep) != 0 {
		t.Fatalf("NULL eq kept shards: %v", keep)
	}
	// AND intersects: k = 42 AND other-col predicate stays pinned.
	keep = m.PruneShards(expr.And{Kids: []expr.Expr{
		expr.Cmp{Col: "k", Op: expr.OpEq, Val: v},
		expr.Cmp{Col: "x", Op: expr.OpGe, Val: value.Int(0)},
	}})
	if count(keep) != 1 || !keep[m.ShardFor(v)] {
		t.Fatalf("and did not stay pinned: %v", keep)
	}
}

func TestShardErrorTyping(t *testing.T) {
	cause := errors.New("connection refused")
	err := error(&ShardError{Shard: 2, Addr: "http://x", Err: cause})
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatal("ShardError does not match ErrShardUnavailable")
	}
	if !errors.Is(err, cause) {
		t.Fatal("ShardError does not unwrap to its cause")
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 2 {
		t.Fatal("ShardError lost its shard id")
	}
}

// TestOutlineCacheBounded: ad-hoc statements through a coordinator keep
// at most maxOutlines outlines, the oldest evicted first, and the newest
// still served from the cache.
func TestOutlineCacheBounded(t *testing.T) {
	planner := minequery.New()
	if err := planner.CreateTable("t", minequery.MustSchema(minequery.Column{Name: "k", Kind: minequery.KindInt})); err != nil {
		t.Fatal(err)
	}
	c := New(planner, mustRangeMap(t, []int64{5}, 2), Config{})
	sql := func(i int) string { return fmt.Sprintf("SELECT k FROM t WHERE k = %d", i) }
	var newest *minequery.PlanOutline
	for i := 0; i < 300; i++ {
		_, o, _, err := c.lookup(sql(i), false)
		if err != nil {
			t.Fatal(err)
		}
		newest = o
	}
	if n := len(c.stmts); n > maxOutlines || len(c.order) != n {
		t.Fatalf("300 statements left %d outlines (%d in eviction order), want at most %d", n, len(c.order), maxOutlines)
	}
	if _, o, _, err := c.lookup(sql(299), false); err != nil || o != newest {
		t.Fatalf("the newest statement missed the cache: %p, %v", o, err)
	}
	if _, ok := c.stmts[newest.Norm]; !ok {
		t.Fatal("the newest outline is not cached")
	}
	if _, ok := c.stmts["select k from t where k = 0"]; ok {
		t.Fatal("the oldest outline survived 299 newer ones")
	}
}

// TestPreparedStatementsBounded: the coordinator's prepared-statement
// table keeps the maxOutlines newest statements, lists them in the order
// their ids were issued (cq9 before cq10), and an evicted id answers
// not_found.
func TestPreparedStatementsBounded(t *testing.T) {
	planner := minequery.New()
	if err := planner.CreateTable("t", minequery.MustSchema(minequery.Column{Name: "k", Kind: minequery.KindInt})); err != nil {
		t.Fatal(err)
	}
	c := New(planner, mustRangeMap(t, []int64{5}, 2), Config{})
	ctx := context.Background()
	var first string
	for i := 0; i <= maxOutlines; i++ {
		p, err := c.Prepare(ctx, fmt.Sprintf("SELECT k FROM t WHERE k = %d", i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = p.StatementID
		}
	}
	listed := c.Statements()
	if n := len(listed); n != maxOutlines || len(c.stmts) != maxOutlines {
		t.Fatalf("%d prepares left %d statements (%d by text), want %d", maxOutlines+1, n, len(c.stmts), maxOutlines)
	}
	for i, p := range listed {
		if want := fmt.Sprintf("cq%d", i+2); p.StatementID != want {
			t.Fatalf("statement %d listed as %s, want %s: ids are listed in the order they were issued", i, p.StatementID, want)
		}
	}
	var re *RemoteError
	if _, err := c.Execute(ctx, Request{StatementID: first}); !errors.As(err, &re) || re.Code != wire.CodeNotFound {
		t.Fatalf("evicted statement %s: %v, want not_found", first, err)
	}
}
