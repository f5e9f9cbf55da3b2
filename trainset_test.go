package minequery

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"minequery/internal/exec"
	"minequery/internal/expr"
	"minequery/internal/mining/nbayes"
	"minequery/internal/sqlparse"
	"minequery/internal/value"
)

// raceEnabled is set by race_test.go; allocation counts skip under it.
var raceEnabled bool

func trainSetFixture(t *testing.T, rows int) *Engine {
	t.Helper()
	eng := New()
	if err := eng.CreateTable("t", MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "a", Kind: KindInt},
		Column{Name: "label", Kind: KindString},
		Column{Name: "note", Kind: KindString},
	)); err != nil {
		t.Fatal(err)
	}
	note := strings.Repeat("n", 512)
	batch := make([]Tuple, rows)
	for i := range batch {
		batch[i] = Tuple{Int(int64(i)), Int(int64(i % 7)), Str([]string{"x", "y"}[i%2]), Str(note)}
	}
	if err := eng.InsertBatch("t", batch); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestBuildTrainSetWhere pins the train set a relational view yields:
// the rows passing the WHERE in heap order, narrowed to the inputs, each
// with its label — also when the label is one of the inputs or absent.
func TestBuildTrainSetWhere(t *testing.T) {
	eng := trainSetFixture(t, 300)
	where := expr.Cmp{Col: "id", Op: expr.OpGe, Val: Int(100)} // a column that is neither input nor label
	for _, tc := range []struct {
		name   string
		inputs []string
		label  string
	}{
		{"label apart", []string{"a"}, "label"},
		{"label among the inputs", []string{"a", "LABEL"}, "label"},
		{"no label", []string{"a", "id"}, ""},
	} {
		cs, err := eng.buildTrainColumns("t", tc.inputs, tc.label, where)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cs.Len() != 200 || len(cs.Cols) != len(tc.inputs) {
			t.Fatalf("%s: %d rows of %d columns", tc.name, cs.Len(), len(cs.Cols))
		}
		for i := 0; i < cs.Len(); i++ {
			id := int64(100 + i)
			wantLabel := Str([]string{"x", "y"}[id%2])
			if tc.label == "" {
				wantLabel = Null()
			}
			a, label := cs.Cols[0].Value(i), cs.Classes[cs.Labels[i]]
			if a != Int(id%7) || label != wantLabel {
				t.Fatalf("%s: row %d: a=%v label %v, want a=%d label %v", tc.name, i, a, label, id%7, wantLabel)
			}
			if tc.label != "" && len(tc.inputs) > 1 && cs.Cols[1].Value(i) != label {
				t.Fatalf("%s: row %d: the label as an input reads %v, as a class %v", tc.name, i, cs.Cols[1].Value(i), label)
			}
		}
	}
	if _, err := eng.buildTrainColumns("t", []string{"a"}, "nope", nil); err == nil || !strings.Contains(err.Error(), "no label column") {
		t.Errorf("unknown label column: err = %v", err)
	}
	if _, err := eng.buildTrainColumns("t", []string{"nope"}, "label", nil); err == nil || !strings.Contains(err.Error(), `no column "nope"`) {
		t.Errorf("unknown input column: err = %v", err)
	}
}

// TestExplainCreateModelShowsTrainView: EXPLAIN CREATE MODEL prints the
// plan training drains — the view's WHERE as a Filter and its columns
// as a Project over the scan — not a bare scan.
func TestExplainCreateModelShowsTrainView(t *testing.T) {
	eng := trainSetFixture(t, 10)
	got, err := eng.Explain("CREATE MODEL m ON t PREDICT label USING dtree AS SELECT a, label FROM t WHERE a > 5")
	if err != nil {
		t.Fatal(err)
	}
	want := "CreateModel(m family=dtree predict=label over t)\n" +
		"  Project(a, label)\n" +
		"    Filter(a > 5)\n" +
		"      SeqScan(t)\n"
	if got != want {
		t.Fatalf("EXPLAIN CREATE MODEL =\n%s\nwant\n%s", got, want)
	}
}

// TestAllocTrainSetReadsOnlyItsColumns: the train scan decodes the
// inputs, the label and the WHERE's columns; the half-KiB note of every
// row is never built.
func TestAllocTrainSetReadsOnlyItsColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows = 2000
	eng := trainSetFixture(t, rows)
	build := func() {
		if cs, err := eng.buildTrainColumns("t", []string{"a"}, "label", nil); err != nil || cs.Len() != rows {
			t.Fatalf("%v", err)
		}
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > rows*512/2 {
		t.Fatalf("building a train set over (a, label) allocated %d B; the notes alone are %d B", got, rows*512)
	}
}

// discardTrain drains a training view and keeps nothing.
type discardTrain struct{ exec.RowSink }

func (discardTrain) open(*value.Schema, int, int64) {}

// TestAllocTreeTrainSetIsColumnar: a tree's train set costs what its
// columns hold — over (one INT input, a TEXT label), a float64 and a
// class id a row — and no tuple, no Value and no label per row. The
// view drains once into the column sink and once into exec.Discard, on
// one P with GC off, and the column sink may allocate at most 16 B a row
// more.
func TestAllocTreeTrainSetIsColumnar(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows = 20000
	eng := trainSetFixture(t, rows)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drain := func(sink trainSink) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := eng.drainTrainView("t", []string{"a"}, "label", nil, sink); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	drain(discardTrain{exec.Discard}) // warms the scan's pools
	discarded := drain(discardTrain{exec.Discard})
	var s columnSink
	kept := drain(&s)
	if s.cs.Len() != rows {
		t.Fatalf("the column sink kept %d rows, want %d", s.cs.Len(), rows)
	}
	perRow := (float64(kept) - float64(discarded)) / rows
	t.Logf("kept %d B, discarded %d B: %.2f B a row", kept, discarded, perRow)
	if perRow > 16 {
		t.Fatalf("keeping the train set allocated %d B over discarding it, %d B: %.1f B a row (at most 16)", kept, discarded, perRow)
	}
}

// bayesFixture is a seeded table over the values where naive Bayes'
// keying is subtle: FLOAT -0, 0 and NaN payloads, INT and FLOAT columns
// holding equal numbers, NULL inputs and labels, a label column that is
// also an input, a column z that is NULL in every row and a column w
// that is NULL in the first 50.
func bayesFixture(t *testing.T, seed int64, rows int) *Engine {
	t.Helper()
	eng := New()
	if err := eng.CreateTable("t", MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "x", Kind: KindFloat},
		Column{Name: "n", Kind: KindInt},
		Column{Name: "s", Kind: KindString},
		Column{Name: "c", Kind: KindString},
		Column{Name: "f", Kind: KindFloat},
		Column{Name: "z", Kind: KindInt},
		Column{Name: "w", Kind: KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	nan2 := math.Float64frombits(0x7ff8000000000bad)
	xs := []Value{Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(nan2), Float(2), Float(2.5), Float(-1), Null()}
	ns := []Value{Int(0), Int(2), Int(3), Null()}
	ss := []Value{Str("a"), Str("b"), Str("2"), Str(""), Null()}
	cs := []Value{Str("hi"), Str("lo"), Str("mid"), Null()}
	fs := []Value{Float(0), Float(math.Copysign(0, -1)), Float(1), Float(math.NaN())}
	batch := make([]Tuple, rows)
	for i := range batch {
		batch[i] = Tuple{Int(int64(i)), xs[r.Intn(len(xs))], ns[r.Intn(len(ns))], ss[r.Intn(len(ss))],
			cs[r.Intn(len(cs))], fs[r.Intn(len(fs))], Null(), Null()}
		if i >= 50 {
			batch[i][7] = Int(int64(r.Intn(3)))
		}
	}
	if err := eng.InsertBatch("t", batch); err != nil {
		t.Fatal(err)
	}
	return eng
}

// sameBayes reports where two naive Bayes models first differ, "" when
// they are bit-identical: Values compare by == (a FLOAT's bits), and
// probabilities by their bits.
func sameBayes(got, want *nbayes.Model) string {
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	switch {
	case got.Name() != want.Name() || got.PredictColumn() != want.PredictColumn() ||
		!slices.Equal(got.InputColumns(), want.InputColumns()):
		return fmt.Sprintf("metadata %s %s %v, want %s %s %v", got.Name(), got.PredictColumn(), got.InputColumns(),
			want.Name(), want.PredictColumn(), want.InputColumns())
	case !slices.Equal(got.Classes(), want.Classes()) || !bits(got.Priors, want.Priors):
		return fmt.Sprintf("classes %v priors %v, want %v %v", got.Classes(), got.Priors, want.Classes(), want.Priors)
	case len(got.Domains) != len(want.Domains):
		return "attribute count"
	}
	for d := range want.Domains {
		if !slices.Equal(got.Domains[d], want.Domains[d]) || !bits(got.Floor[d], want.Floor[d]) ||
			!slices.EqualFunc(got.Cond[d], want.Cond[d], bits) {
			return fmt.Sprintf("attribute %d: domain %v floor %v cond %v, want %v %v %v", d,
				got.Domains[d], got.Floor[d], got.Cond[d], want.Domains[d], want.Floor[d], want.Cond[d])
		}
	}
	return ""
}

// TestNaiveBayesStreamMatchesTrainSet: naive Bayes counted while its
// view drains — CREATE MODEL, its retrain and Engine.TrainNaiveBayes —
// is bit for bit the model nbayes.Train fits over buildTrainSetWhere's
// set, and fails with the same error where that does: an empty view, an
// attribute NULL in every row, an attribute NULL in every row the view
// keeps.
func TestNaiveBayesStreamMatchesTrainSet(t *testing.T) {
	type view struct {
		inputs []string
		label  string
		where  string
	}
	views := []view{
		{[]string{"x", "n", "s"}, "c", ""},
		{[]string{"x", "s"}, "f", "id >= 37"},
		{[]string{"n", "c"}, "c", "x > 0"},
		{[]string{"x", "n"}, "s", "n <> 2 OR s = 'a'"},
		{[]string{"x", "s"}, "c", "id < 0"},  // empty view
		{[]string{"x", "z"}, "c", ""},        // z is NULL everywhere
		{[]string{"s", "w"}, "c", "id < 50"}, // w is NULL in every row kept
		{[]string{"s", "w"}, "c", "id < 51"},
	}
	for seed := int64(1); seed <= 4; seed++ {
		eng := bayesFixture(t, seed, 150+int(seed)*97)
		for vi, v := range views {
			name := fmt.Sprintf("nb%d", vi)
			sql := fmt.Sprintf("CREATE MODEL %s ON t PREDICT %s USING nbayes AS SELECT %s, %s FROM t",
				name, v.label, strings.Join(v.inputs, ", "), v.label)
			if v.where != "" {
				sql += " WHERE " + v.where
			}
			st, err := sqlparse.ParseStatement(sql)
			if err != nil {
				t.Fatal(err)
			}
			tb, _ := eng.cat.Table("t")
			def := newModelDef(st.CreateModel, sql)
			feats, err := resolveDefFeatures(tb, def)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := eng.buildTrainColumns("t", feats, def.label, def.where)
			if err != nil {
				t.Fatalf("seed %d view %d: %v", seed, vi, err)
			}
			want, wantErr := nbayes.TrainColumns(name, v.label, cs, nbayes.Options{})

			_, err = eng.Exec(context.Background(), sql)
			if wantErr != nil {
				wantMsg := fmt.Sprintf("minequery: train %s (nbayes): %v", name, wantErr)
				if err == nil || err.Error() != wantMsg {
					t.Fatalf("seed %d view %d: CREATE MODEL err = %v, want %s", seed, vi, err, wantMsg)
				}
			} else if err != nil {
				t.Fatalf("seed %d view %d: CREATE MODEL: %v", seed, vi, err)
			} else {
				me, _ := eng.cat.Model(name)
				if d := sameBayes(me.Model.(*nbayes.Model), want); d != "" {
					t.Fatalf("seed %d view %d: CREATE MODEL: %s", seed, vi, d)
				}
				// The write-volume retrain trains through the same definition.
				m, _, err := eng.trainModelFromDef(eng.modelDefs[name])
				if err != nil {
					t.Fatalf("seed %d view %d: retrain: %v", seed, vi, err)
				}
				if d := sameBayes(m.(*nbayes.Model), want); d != "" {
					t.Fatalf("seed %d view %d: retrain: %s", seed, vi, d)
				}
			}
			if def.where != nil {
				continue
			}
			if cs, err = eng.buildTrainColumns("t", v.inputs, v.label, nil); err != nil {
				t.Fatal(err)
			}
			want, wantErr = nbayes.TrainColumns(name+"_api", v.label, cs, nbayes.Options{})
			_, err = eng.TrainNaiveBayes(name+"_api", v.label, "t", v.inputs, v.label, nbayes.Options{})
			if wantErr != nil {
				wantMsg := fmt.Sprintf("minequery: train %s_api (nbayes): %v", name, wantErr)
				if err == nil || err.Error() != wantMsg {
					t.Fatalf("seed %d view %d: TrainNaiveBayes err = %v, want %s", seed, vi, err, wantMsg)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d view %d: TrainNaiveBayes: %v", seed, vi, err)
			}
			me, _ := eng.cat.Model(name + "_api")
			if d := sameBayes(me.Model.(*nbayes.Model), want); d != "" {
				t.Fatalf("seed %d view %d: TrainNaiveBayes: %s", seed, vi, d)
			}
		}
	}
}

// TestAllocNaiveBayesTrainIsRowFree: naive Bayes trained as its view
// drains keeps no row — over 2,000 and 20,000 rows of one table shape,
// training allocates within 1 B a row of the same, the scan's own
// storage coming from its pools. On one P with GC off.
func TestAllocNaiveBayesTrainIsRowFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	train := func(rows int) uint64 {
		eng := trainSetFixture(t, rows)
		d := &modelDef{name: "nb", table: "t", family: "nbayes", predict: "label", label: "label", feats: []string{"a"}, opts: nbayes.Options{}}
		if _, _, err := eng.trainModelFromDef(d); err != nil { // warms the scan's pools
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := eng.trainModelFromDef(d); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := train(2000), train(20000)
	if perRow := (float64(large) - float64(small)) / 18000; perRow >= 1 {
		t.Fatalf("streamed naive Bayes allocated %d B over 2,000 rows and %d B over 20,000: %.2f B a row", small, large, perRow)
	}
}

// TestModelDoorAPIMatchesCreateModel: a Train* call given CREATE
// MODEL's options makes CREATE MODEL's model, for every family — the
// same prediction on every row and the same rendered envelopes — and
// fails with CREATE MODEL's error where that fails.
func TestModelDoorAPIMatchesCreateModel(t *testing.T) {
	type view struct {
		family string
		inputs []string
		label  string // the PREDICT column, and for classification the label
	}
	var views []view
	for _, f := range []string{"dtree", "nbayes", "rules"} {
		views = append(views,
			view{f, []string{"x", "n", "s"}, "c"},
			view{f, []string{"n", "s"}, "f"},
			view{f, []string{"x", "z"}, "c"}, // z is NULL everywhere
			view{f, []string{"s", "w"}, "c"}) // w is NULL in the first 50 rows
	}
	for _, f := range []string{"kmeans", "gmm"} {
		views = append(views,
			view{f, []string{"n", "w"}, "seg"},
			view{f, []string{"n", "f"}, "seg"},
			view{f, []string{"x", "n"}, "seg"})
	}
	api := func(eng *Engine, name string, v view) (*ModelInfo, error) {
		switch opts := createModelOptions[v.family]; v.family {
		case "dtree":
			return eng.TrainDecisionTree(name, v.label, "t", v.inputs, v.label, opts.(TreeOptions))
		case "nbayes":
			return eng.TrainNaiveBayes(name, v.label, "t", v.inputs, v.label, opts.(BayesOptions))
		case "rules":
			return eng.TrainRules(name, v.label, "t", v.inputs, v.label, opts.(RuleOptions))
		case "kmeans":
			return eng.TrainKMeans(name, v.label, "t", v.inputs, opts.(ClusterOptions))
		default:
			return eng.TrainGMM(name, v.label, "t", v.inputs, opts.(ClusterOptions))
		}
	}
	// made renders what the model registered as name answers: its
	// prediction for every row of t and its envelope for every class.
	made := func(eng *Engine, name string) string {
		me, _ := eng.cat.Model(name)
		tb, _ := eng.cat.Table("t")
		res, err := eng.Query(context.Background(), "SELECT * FROM t")
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		in := make(Tuple, len(me.Model.InputColumns()))
		for _, row := range res.Rows {
			for i, c := range me.Model.InputColumns() {
				in[i] = row[tb.Schema.Ordinal(c)]
			}
			fmt.Fprintf(&b, "%v ", me.Model.Predict(in))
		}
		for _, class := range me.Model.Classes() {
			env, _ := eng.Envelope(name, class)
			fmt.Fprintf(&b, "\n%v: %v", class, env)
		}
		return b.String()
	}
	for seed := int64(1); seed <= 3; seed++ {
		eng := bayesFixture(t, seed, 150+int(seed)*97)
		for vi, v := range views {
			name := fmt.Sprintf("m%d", vi)
			sql := fmt.Sprintf("CREATE MODEL %s ON t PREDICT %s USING %s AS SELECT %s FROM t",
				name, v.label, v.family, strings.Join(v.inputs, ", "))
			_, wantErr := eng.Exec(context.Background(), sql)
			var want string
			if wantErr == nil {
				want = made(eng, name)
			}
			_, err := api(eng, name, v)
			switch {
			case wantErr != nil:
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("seed %d %s: Train* err = %v, want CREATE MODEL's %v", seed, sql, err, wantErr)
				}
			case err != nil:
				t.Fatalf("seed %d %s: Train*: %v", seed, sql, err)
			default:
				if got := made(eng, name); got != want {
					t.Fatalf("seed %d %s: Train* made\n%s\nCREATE MODEL made\n%s", seed, sql, got, want)
				}
			}
		}
	}
}
