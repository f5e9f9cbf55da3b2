package exec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/interval"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// unionRIDsOracle is the index union as a seen-map over one slice per
// arm, sorted by sort.Slice: the first RID of each value kept, then heap
// order.
func unionRIDsOracle(ctx context.Context, t *catalog.Table, x *plan.IndexUnion, opts Options) ([]storage.RID, error) {
	seen := make(map[storage.RID]bool)
	var rids []storage.RID
	for _, s := range x.Seeks {
		sub, err := seekRIDs(ctx, t, s, opts, nil)
		if err != nil {
			return nil, err
		}
		for _, r := range sub {
			if !seen[r] {
				seen[r] = true
				rids = append(rids, r)
			}
		}
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i].Less(rids[j]) })
	return rids, nil
}

// randomSeek draws one arm: an equality or range seek on one of
// testDB's three indexes, often overlapping the other arms.
func randomSeek(r *rand.Rand) *plan.IndexSeek {
	cat := value.Str(fmt.Sprintf("c%d", r.Intn(9))) // c8 matches no row
	num := value.Int(int64(r.Intn(110)))
	switch r.Intn(5) {
	case 0:
		return &plan.IndexSeek{Table: "t", Index: "ix_cat", EqVals: []value.Value{cat}}
	case 1:
		return &plan.IndexSeek{Table: "t", Index: "ix_num", Range: interval.Above(num, r.Intn(2) == 0)}
	case 2:
		return &plan.IndexSeek{Table: "t", Index: "ix_num", Range: interval.Below(num, r.Intn(2) == 0)}
	case 3:
		return &plan.IndexSeek{Table: "t", Index: "ix_num", Range: interval.Point(num)}
	default:
		return &plan.IndexSeek{Table: "t", Index: "ix_cat_num", EqVals: []value.Value{cat},
			Range: interval.Above(num, true)}
	}
}

// TestUnionRIDsMatchesOracle: the union sorted and compacted in one
// slice returns the RIDs the seen-map returns, in the same order, over
// random unions of one to five arms — duplicates, empty arms and arms
// covering the table included — before and after deletes.
func TestUnionRIDsMatchesOracle(t *testing.T) {
	_, tb := testDB(t, 3000)
	r := rand.New(rand.NewSource(5))
	ctx := context.Background()
	check := func(round int) {
		x := &plan.IndexUnion{Table: "t"}
		for n := 1 + r.Intn(5); n > 0; n-- {
			x.Seeks = append(x.Seeks, randomSeek(r))
		}
		if r.Intn(4) == 0 {
			x.Seeks = append(x.Seeks, x.Seeks[0]) // the same arm twice
		}
		got, err := unionRIDs(ctx, tb, x, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := unionRIDsOracle(ctx, tb, x, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d, union of %d arms: %d RIDs, the oracle %d (or the order differs)", round, len(x.Seeks), len(got), len(want))
		}
	}
	for round := 0; round < 300; round++ {
		check(round)
	}
	var victims []storage.RID
	tb.Heap.Scan(func(rid storage.RID, _ []byte) bool {
		if r.Intn(3) == 0 {
			victims = append(victims, rid)
		}
		return true
	})
	for _, rid := range victims {
		if ok, err := tb.Delete(rid); !ok || err != nil {
			t.Fatalf("delete %v: %v, %v", rid, ok, err)
		}
	}
	for round := 300; round < 400; round++ {
		check(round)
	}
}
