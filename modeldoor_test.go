package minequery

// One door for models: a Train* call, CREATE MODEL, the threshold
// retrain, DropModel and RegisterModel all go through one recorded
// definition under writeMu, and once a WAL is attached nothing changes
// rows or models behind it.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// doorEngine is newCrashEngine's table t seeded with n rows.
func doorEngine(t *testing.T, n int) *Engine {
	t.Helper()
	eng := newCrashEngine(t)
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{Int(int64(i)), Int(int64(i % 5)), Int(int64(i * 7 % 60)), Str([...]string{"red", "green", "blue"}[i%3])}
	}
	if err := eng.InsertBatch("t", rows); err != nil {
		t.Fatal(err)
	}
	return eng
}

// doorInsert inserts n rows with ids from id on, and returns what it
// retrained.
func doorInsert(t *testing.T, eng *Engine, id, n int) []string {
	t.Helper()
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d, %d, 'red')", id+i, (id+i)%5, (id+i)%60)
	}
	res, err := eng.Exec(context.Background(), "INSERT INTO t (id, a, b, label) VALUES "+strings.Join(vals, ", "))
	if err != nil {
		t.Fatal(err)
	}
	return res.Retrained
}

func doorVersion(t *testing.T, eng *Engine, name string) int64 {
	t.Helper()
	me, ok := eng.cat.Model(name)
	if !ok {
		t.Fatalf("model %s is not registered", name)
	}
	return me.Version
}

// TestWALRefusesUnloggedWrites: once a log is attached, the unlogged
// calls are refused. Unlogged rows would shift the RIDs that later
// logged statements name, so recovery would delete the wrong row; an
// unlogged model would vanish at recovery with nothing to report it.
func TestWALRefusesUnloggedWrites(t *testing.T) {
	ctx := context.Background()
	eng := doorEngine(t, 10)
	ext := doorEngine(t, 10)
	if _, err := ext.TrainDecisionTree("ext", "label", "t", []string{"a", "b"}, "label", TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	extModel, _ := ext.cat.Model("ext")
	dev := NewMemWALDevice()
	if _, err := eng.EnableWAL(dev); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(ctx, "CREATE MODEL c ON t PREDICT label USING dtree"); err != nil {
		t.Fatal(err)
	}
	refused := func(call, route string, err error) {
		t.Helper()
		if !errors.Is(err, ErrUnsupportedQuery) || !strings.Contains(err.Error(), route) {
			t.Errorf("%s after EnableWAL: err = %v, want ErrUnsupportedQuery naming %q", call, err, route)
		}
	}
	refused("InsertBatch", "Exec INSERT", eng.InsertBatch("t", []Tuple{
		{Int(100), Int(1), Int(1), Str("red")}, {Int(101), Int(2), Int(2), Str("blue")}}))
	refused("Insert", "Exec INSERT", eng.Insert("t", Tuple{Int(102), Int(1), Int(1), Str("red")}))
	for _, sql := range []string{
		"INSERT INTO t (id, a, b, label) VALUES (200, 0, 0, 'red')",
		"DELETE FROM t WHERE id = 200",
		"UPDATE t SET a = 4 WHERE id < 3",
	} {
		if _, err := eng.Exec(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	_, err := eng.TrainDecisionTree("m", "label", "t", []string{"a", "b"}, "label", TreeOptions{})
	refused("TrainDecisionTree", "CREATE MODEL", err)
	_, err = eng.TrainKMeans("k", "seg", "t", []string{"a", "b"}, ClusterOptions{K: 2, Seed: 1})
	refused("TrainKMeans", "CREATE MODEL", err)
	_, err = eng.RegisterModel(extModel.Model)
	refused("RegisterModel", "before EnableWAL", err)
	refused("DropModel", "before EnableWAL", eng.DropModel("c"))

	rec := doorEngine(t, 10)
	if _, err := rec.EnableWAL(NewMemWALDeviceFrom(dev.CrashImage(0))); err != nil {
		t.Fatal(err)
	}
	if got, want := crashState(t, rec), crashState(t, eng); got != want {
		t.Fatalf("recovery from the seed and the log diverges from the live engine:\nrecovered:\n%s\nlive:\n%s", got, want)
	}
}

// TestModelDoorAPIModelRetrains: a threshold write retrains the models
// Train* made, in the order they were made, and not one that
// RegisterModel put over a Train* name.
func TestModelDoorAPIModelRetrains(t *testing.T) {
	eng := doorEngine(t, 30)
	if _, err := eng.TrainDecisionTree("dt", "label", "t", []string{"a", "b"}, "label", TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TrainNaiveBayes("nb", "label", "t", []string{"a"}, "label", BayesOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TrainKMeans("km", "seg", "t", []string{"a", "b"}, ClusterOptions{K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	eng.SetRetrainPolicy(RetrainPolicy{WriteThreshold: 2})
	if got := doorInsert(t, eng, 100, 3); !slices.Equal(got, []string{"dt", "nb", "km"}) {
		t.Fatalf("threshold write retrained %v, want [dt nb km]", got)
	}
	for _, name := range []string{"dt", "nb", "km"} {
		if v := doorVersion(t, eng, name); v != 2 {
			t.Errorf("%s is at version %d after one retrain, want 2", name, v)
		}
	}

	ext := doorEngine(t, 30)
	if _, err := ext.TrainNaiveBayes("nb", "label", "t", []string{"b"}, "label", BayesOptions{}); err != nil {
		t.Fatal(err)
	}
	extModel, _ := ext.cat.Model("nb")
	if _, err := eng.RegisterModel(extModel.Model); err != nil {
		t.Fatal(err)
	}
	if got := doorInsert(t, eng, 200, 3); !slices.Equal(got, []string{"dt", "km"}) {
		t.Fatalf("threshold write retrained %v, want [dt km]: the external nb was trained over", got)
	}
	if me, _ := eng.cat.Model("nb"); me.Model != extModel.Model {
		t.Fatal("a retrain replaced the externally registered nb")
	}
}

// TestModelDoorDropStaysDropped: a dropped model stays dropped through
// threshold writes, whichever door made it, and a name dropped and made
// again is retrained once per threshold.
func TestModelDoorDropStaysDropped(t *testing.T) {
	ctx := context.Background()
	eng := doorEngine(t, 30)
	if _, err := eng.Exec(ctx, "CREATE MODEL m ON t PREDICT label USING dtree AS SELECT a, b, label FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TrainRules("r", "label", "t", []string{"a", "b"}, "label", RuleOptions{}); err != nil {
		t.Fatal(err)
	}
	eng.SetRetrainPolicy(RetrainPolicy{WriteThreshold: 2})
	for _, name := range []string{"m", "r"} {
		if err := eng.DropModel(name); err != nil {
			t.Fatal(err)
		}
	}
	if got := doorInsert(t, eng, 100, 3); len(got) != 0 {
		t.Fatalf("threshold write after the drops retrained %v", got)
	}
	for _, name := range []string{"m", "r"} {
		if _, ok := eng.cat.Model(name); ok {
			t.Fatalf("dropped model %s is back", name)
		}
	}

	if _, err := eng.Exec(ctx, "CREATE MODEL m ON t PREDICT label USING nbayes AS SELECT a, label FROM t"); err != nil {
		t.Fatal(err)
	}
	before := doorVersion(t, eng, "m")
	if got := doorInsert(t, eng, 200, 3); !slices.Equal(got, []string{"m"}) {
		t.Fatalf("threshold write retrained %v, want [m] once", got)
	}
	if v := doorVersion(t, eng, "m"); v != before+1 {
		t.Fatalf("re-created m went from version %d to %d in one threshold, want %d", before, v, before+1)
	}
}

// TestModelDoorConcurrentWithWrites: Train* and DropModel race Exec DML
// and the retrains it triggers; afterwards each registered model has
// one recorded definition and each definition a model, and the next
// threshold write retrains exactly those.
func TestModelDoorConcurrentWithWrites(t *testing.T) {
	ctx := context.Background()
	eng := doorEngine(t, 60)
	if _, err := eng.Exec(ctx, "CREATE MODEL cm ON t PREDICT label USING dtree AS SELECT a, b, label FROM t"); err != nil {
		t.Fatal(err)
	}
	eng.SetRetrainPolicy(RetrainPolicy{WriteThreshold: 5})
	const rounds = 40
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	wg.Add(3)
	go func() { // writer: inserts and updates cross the threshold
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			sql := fmt.Sprintf("INSERT INTO t (id, a, b, label) VALUES (%d, %d, %d, 'blue'), (%d, 1, 2, 'red')", 1000+2*i, i%5, i%60, 1001+2*i)
			if i%4 == 3 {
				sql = fmt.Sprintf("UPDATE t SET b = %d WHERE id = %d", i%60, i)
			}
			if _, err := eng.Exec(ctx, sql); err != nil {
				errc <- fmt.Errorf("%s: %w", sql, err)
				return
			}
		}
	}()
	go func() { // the Go-API door: train, then drop every other model
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("api%d", i%6)
			var err error
			switch i % 3 {
			case 0:
				_, err = eng.TrainDecisionTree(name, "label", "t", []string{"a", "b"}, "label", TreeOptions{})
			case 1:
				_, err = eng.TrainNaiveBayes(name, "label", "t", []string{"a"}, "label", BayesOptions{})
			default:
				_, err = eng.TrainKMeans(name, "seg", "t", []string{"a", "b"}, ClusterOptions{K: 2, Seed: 1})
			}
			if err == nil && i%2 == 1 {
				err = eng.DropModel(name)
			}
			if err != nil {
				errc <- fmt.Errorf("round %d: %w", i, err)
				return
			}
		}
	}()
	go func() { // a reader of the model the writer retrains
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			_, err := eng.Query(ctx, "SELECT id FROM t PREDICTION JOIN cm AS m ON m.a = t.a AND m.b = t.b WHERE m.label = 'red'")
			if err != nil && !errors.Is(err, ErrStalePlan) {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	eng.writeMu.Lock()
	defs := slices.Clone(eng.defOrder)
	n := len(eng.modelDefs)
	eng.writeMu.Unlock()
	if len(defs) != n {
		t.Fatalf("defOrder %v holds %d keys, modelDefs %d", defs, len(defs), n)
	}
	var models []string
	for _, me := range eng.cat.Models() {
		models = append(models, me.Model.Name())
	}
	sorted := slices.Clone(defs)
	slices.Sort(sorted)
	slices.Sort(models)
	if !slices.Equal(models, sorted) {
		t.Fatalf("registered models %v, recorded definitions %v: every model here was trained, so each has one", models, defs)
	}
	if got := doorInsert(t, eng, 5000, 5); !slices.Equal(got, defs) {
		t.Fatalf("threshold write retrained %v, want the recorded definitions %v", got, defs)
	}
}
