package exec

import (
	"context"
	"math"
	"slices"
	"testing"

	"minequery/internal/catalog"
	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/plan"
	"minequery/internal/storage"
	"minequery/internal/value"
)

// keyPalette is what FuzzSeekKeyFilter draws key columns and bounds
// from: NULL, NaN, both zeros, both infinities, INTs either side of 2^53
// and the FLOAT they round to, TEXT with 0x00 bytes, and BOOL.
var keyPalette = []value.Value{
	value.Null(), value.Float(math.NaN()), value.Float(math.Copysign(0, -1)), value.Float(0), value.Int(0),
	value.Float(math.Inf(-1)), value.Float(math.Inf(1)), value.Int(1 << 53), value.Int(1<<53 + 1), value.Float(1 << 53),
	value.Int(-3), value.Float(2.5), value.Int(7),
	value.Str(""), value.Str("\x00"), value.Str("a"), value.Str("a\x00"), value.Str("a\x00b"), value.Str("a\x01"), value.Str("b"),
	value.Bool(false), value.Bool(true),
}

// keySchema is the fuzzed index's table: one column per kind a key can
// hold, so a typed table can store what the palette draws.
var keySchema = value.MustSchema(
	value.Column{Name: "k0", Kind: value.KindInt},
	value.Column{Name: "k1", Kind: value.KindFloat},
	value.Column{Name: "k2", Kind: value.KindString},
)

// FuzzSeekKeyFilter: a seek's key filter never drops an entry whose row
// satisfies every condition the filter was built from. data picks up to
// four comparisons on k1 and k2 (any operator a seek uses, any palette
// value, of any kind) and then rows of palette values. Every row's key is
// checked against the filter directly; the rows a typed table can hold
// are also stored, indexed on (k0, k1, k2) and sought with a range on k0,
// and the seek must return each one that satisfies the conditions.
func FuzzSeekKeyFilter(f *testing.F) {
	f.Add([]byte{2, 0x15, 0x23, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{3, 0x41, 0x72, 0x18, 12, 2, 14, 12, 3, 17, 4, 1, 18, 12, 0, 0})
	f.Add([]byte{1, 0x38, 7, 8, 16, 7, 9, 19, 7, 7, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		ops := []expr.CmpOp{expr.OpEq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
		var conds []expr.Expr
		var keys [3]interval.Interval
		for range next() % 5 {
			b := next()
			col := 1 + b&1
			c := expr.Cmp{Col: keySchema.Col(col).Name, Op: ops[(b>>1)%len(ops)], Val: keyPalette[next()%len(keyPalette)]}
			conds = append(conds, c)
			if iv, ok := c.Interval(); ok {
				keys[col] = keys[col].Intersect(iv)
			}
		}
		s := &plan.IndexSeek{Table: "k", Index: "ix_k", Range: interval.Below(value.Int(5), true)}
		for pos := 1; pos < 3; pos++ {
			if slices.ContainsFunc(conds, func(e expr.Expr) bool { return e.(expr.Cmp).Col == keySchema.Col(pos).Name }) {
				s.KeyFilter = append(s.KeyFilter, plan.KeyCond{Col: keySchema.Col(pos).Name, Pos: pos, Range: keys[pos]})
			}
		}
		filter, err := newKeyFilter(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		ix := &catalog.Index{Ordinals: []int{0, 1, 2}}
		satisfies := func(row value.Tuple) bool {
			return !slices.ContainsFunc(conds, func(e expr.Expr) bool { return !e.Eval(keySchema, row) })
		}
		var stored []value.Tuple
		for len(data) > 0 {
			row := value.Tuple{keyPalette[next()%len(keyPalette)], keyPalette[next()%len(keyPalette)], keyPalette[next()%len(keyPalette)]}
			if satisfies(row) && !filter.admits(ix.KeyFor(row)) {
				t.Fatalf("the key filter %s drops %v, which satisfies %v", plan.Describe(s), row, conds)
			}
			typed := true
			for i, v := range row {
				typed = typed && (v.IsNull() || v.Kind() == keySchema.Col(i).Kind)
			}
			if typed {
				stored = append(stored, row)
			}
		}
		if len(stored) == 0 {
			return
		}
		c := catalog.New()
		tb, err := c.CreateTable("k", keySchema)
		if err != nil {
			t.Fatal(err)
		}
		rids := make([]storage.RID, len(stored))
		for i, row := range stored {
			if rids[i], err = tb.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.CreateIndex("ix_k", "k", "k0", "k1", "k2"); err != nil {
			t.Fatal(err)
		}
		got, err := seekRIDs(context.Background(), tb, s, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range stored {
			if c := row[0]; !c.IsNull() && value.Compare(c, value.Int(5)) <= 0 && satisfies(row) && !slices.Contains(got, rids[i]) {
				t.Fatalf("%s does not return %v, which satisfies %v", plan.Describe(s), row, conds)
			}
		}
	})
}
