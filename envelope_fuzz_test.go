package minequery

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// envelopeProbeModels are the models FuzzEnvelopeSound trains on its
// probe table, one of each family. A supervised model predicts label; a
// clustering (K=3, Seed=1) predicts seg.
var envelopeProbeModels = []struct {
	name, family, pred string
	inputs             []string
}{
	{"p_tree", "dtree", "label", []string{"age", "x", "cat"}},
	{"p_rules", "rules", "label", []string{"age", "x", "cat"}},
	{"p_nb", "nbayes", "label", []string{"age", "x", "cat"}},
	{"p_km", "kmeans", "seg", []string{"age", "x"}},
	{"p_gmm", "gmm", "seg", []string{"age", "x"}},
}

// envelopeProbeEngine builds t(id, age, x, cat, label): 1,200 rows at
// seed 1, age 0-11, x 0.5-9.5, cat a-d, and label high iff age <= 2
// AND x > 5 AND cat <> 'd'. It trains envelopeProbeModels on it and
// returns each one's classes by name.
func envelopeProbeEngine(tb testing.TB) (*Engine, map[string][]Value) {
	tb.Helper()
	e := New()
	err := e.CreateTable("t", MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "age", Kind: KindInt},
		Column{Name: "x", Kind: KindFloat},
		Column{Name: "cat", Kind: KindString},
		Column{Name: "label", Kind: KindString},
	))
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	rows := make([]Tuple, 1200)
	for i := range rows {
		age, x, cat := int64(r.Intn(12)), 0.5+float64(r.Intn(10)), string(rune('a'+r.Intn(4)))
		label := "low"
		if age <= 2 && x > 5 && cat != "d" {
			label = "high"
		}
		rows[i] = Tuple{Int(int64(i)), Int(age), Float(x), Str(cat), Str(label)}
	}
	if err := e.InsertBatch("t", rows); err != nil {
		tb.Fatal(err)
	}
	if err := e.Analyze("t"); err != nil {
		tb.Fatal(err)
	}
	classes := map[string][]Value{}
	for _, pm := range envelopeProbeModels {
		cols := strings.Join(pm.inputs, ", ")
		if pm.pred == "label" {
			cols += ", label"
		}
		res, err := e.Exec(context.Background(), fmt.Sprintf("CREATE MODEL %s ON t PREDICT %s USING %s AS SELECT %s FROM t",
			pm.name, pm.pred, pm.family, cols))
		if err != nil {
			tb.Fatal(err)
		}
		classes[pm.name] = res.Model.Classes
	}
	return e, classes
}

// envelopeProbeRows decodes data into at most 8 rows, three bytes a row
// (age, x, cat). A byte whose low two bits are 0 is NULL; any other
// picks a value of its column's trained domain.
func envelopeProbeRows(data []byte, firstID int64) []Tuple {
	var rows []Tuple
	for i := 0; i+3 <= len(data) && len(rows) < 8; i += 3 {
		row := Tuple{Int(firstID + int64(len(rows))), Null(), Null(), Null(), Null()}
		if b := data[i]; b&3 != 0 {
			row[1] = Int(int64(b>>2) % 12)
		}
		if b := data[i+1]; b&3 != 0 {
			row[2] = Float(0.5 + float64((b>>2)%10))
		}
		if b := data[i+2]; b&3 != 0 {
			row[3] = Str(string(rune('a' + (b>>2)%4)))
		}
		rows = append(rows, row)
	}
	return rows
}

// FuzzEnvelopeSound holds the paper's contract, predict(x) = c implies
// U_c(x), end to end: it inserts rows whose model inputs are NULL or
// trained-domain values into the probe table, and every class query of
// every model, and its NOT, must return the rows WithBaseline() returns.
// A model that reads a NULL input predicts NULL, which matches neither,
// so no envelope need admit a NULL.
func FuzzEnvelopeSound(f *testing.F) {
	// A byte v<<2|1 is value v of its column: age v, x v+0.5, cat 'a'+v.
	f.Add([]byte{0, 0, 0})                            // every input NULL
	f.Add([]byte{0, 0x1d, 0x01})                      // NULL age, x 7.5, cat a
	f.Add([]byte{0x05, 0, 0x01})                      // age 1, NULL x, cat a
	f.Add([]byte{0x05, 0x1d, 0})                      // age 1, x 7.5, NULL cat
	f.Add([]byte{0x05, 0x1d, 0x01, 0x1d, 0x09, 0x0d}) // no NULL
	e, classes := envelopeProbeEngine(f)
	ctx := context.Background()
	const firstID = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := envelopeProbeRows(data, firstID)
		if len(rows) == 0 {
			return
		}
		if err := e.InsertBatch("t", rows); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if _, err := e.Exec(ctx, fmt.Sprintf("DELETE FROM t WHERE id >= %d", firstID)); err != nil {
				t.Fatal(err)
			}
		}()
		for _, pm := range envelopeProbeModels {
			on := make([]string, len(pm.inputs))
			for i, c := range pm.inputs {
				on[i] = fmt.Sprintf("m.%s = t.%s", c, c)
			}
			for _, c := range classes[pm.name] {
				lit := c.String()
				if c.Kind() == KindString {
					lit = "'" + c.AsString() + "'"
				}
				for _, where := range []string{
					fmt.Sprintf("m.%s = %s", pm.pred, lit),
					fmt.Sprintf("NOT (m.%s = %s)", pm.pred, lit),
				} {
					sql := fmt.Sprintf("SELECT id FROM t PREDICTION JOIN %s AS m ON %s WHERE %s",
						pm.name, strings.Join(on, " AND "), where)
					got, want := envelopeProbeIDs(t, e, sql), envelopeProbeIDs(t, e, sql, WithBaseline())
					if !slices.Equal(got, want) {
						t.Fatalf("%s\nrows %v\noptimized %d rows, baseline %d; missing %v",
							sql, rows, len(got), len(want), missingIDs(got, want))
					}
				}
			}
		}
	})
}

func envelopeProbeIDs(t *testing.T, e *Engine, sql string, opts ...QueryOption) []int64 {
	t.Helper()
	res, err := e.Query(context.Background(), sql, opts...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	ids := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		ids[i] = r[0].AsInt()
	}
	slices.Sort(ids)
	return ids
}

// missingIDs lists the ids of want that got lacks, both sorted.
func missingIDs(got, want []int64) []int64 {
	var out []int64
	for _, id := range want {
		if _, ok := slices.BinarySearch(got, id); !ok {
			out = append(out, id)
		}
	}
	return out
}
