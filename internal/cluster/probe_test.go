package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minequery"
	"minequery/internal/cluster"
	"minequery/internal/server"
	"minequery/internal/wire"
)

// infoRecorder wraps a shard's handler and counts its shard-info
// answers: full ones (tables and models) and epoch-only ones.
type infoRecorder struct {
	next            http.Handler
	full, epochOnly atomic.Int64
}

func (rec *infoRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/shard-info" {
		rec.next.ServeHTTP(w, r)
		return
	}
	out := httptest.NewRecorder()
	rec.next.ServeHTTP(out, r)
	var info wire.ShardInfoResponse
	if err := json.Unmarshal(out.Body.Bytes(), &info); err == nil && out.Code == http.StatusOK {
		if info.Models == nil && info.Tables == nil {
			rec.epochOnly.Add(1)
		} else {
			rec.full.Add(1)
		}
	}
	for k, v := range out.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(out.Code)
	_, _ = w.Write(out.Body.Bytes())
}

// recordInfo puts an infoRecorder in front of every shard; call it
// before the cluster serves anything.
func recordInfo(tc *testCluster) []*infoRecorder {
	recs := make([]*infoRecorder, len(tc.gates))
	for i, g := range tc.gates {
		recs[i] = &infoRecorder{next: g.next}
		g.next = recs[i]
	}
	return recs
}

func (rec *infoRecorder) counts() (full, epochOnly int64) {
	return rec.full.Load(), rec.epochOnly.Load()
}

// TestPrunedShardProbeSendsEpoch: an envelope-pruned shard is probed on
// every query, and while its catalog stays at the epoch the coordinator
// cached its fingerprints at, it answers that epoch alone. After Sync's
// one full answer per shard, 50 vip queries — each envelope-pruning
// shards 0 and 1 — get 50 epoch-only answers from each of the two. An
// out-of-band retrain moves shard 0's epoch: the next probe gets a full
// answer, whose new fingerprint demotes the prune to a query.
func TestPrunedShardProbeSendsEpoch(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2000, cluster.Config{})
	recs := recordInfo(tc)
	ctx := context.Background()
	if err := tc.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	const queries = 50
	for q := 0; q < queries; q++ {
		res, err := tc.coord.Execute(ctx, cluster.Request{SQL: vipQuery})
		if err != nil {
			t.Fatal(err)
		}
		if res.ShardStats.Pruned != 2 || res.ShardStats.Queried != 1 {
			t.Fatalf("query %d: %+v, want shards 0 and 1 envelope-pruned", q, res.ShardStats)
		}
	}
	for i, want := range [][2]int64{{1, queries}, {1, queries}, {1, 0}} {
		if full, epochOnly := recs[i].counts(); full != want[0] || epochOnly != want[1] {
			t.Fatalf("shard %d: %d full and %d epoch-only shard-info answers, want %d and %d",
				i, full, epochOnly, want[0], want[1])
		}
	}

	// Retrain shard 0 with shifted labels (as TestCrossNodePlanInvalidation
	// does): its fingerprint no longer matches the planner's.
	shard0 := tc.engines[0]
	extra := make([]minequery.Tuple, 0, 200)
	for i := 0; i < 200; i++ {
		extra = append(extra, minequery.Tuple{
			minequery.Int(int64(i % 2)), minequery.Int(int64(i % 3)), minequery.Str("vip"),
		})
	}
	if err := shard0.InsertBatch("training", extra); err != nil {
		t.Fatal(err)
	}
	if _, err := shard0.TrainDecisionTree("seg_tree", "seg", "training",
		[]string{"age", "income"}, "segment", minequery.TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	replans := tc.coord.Counters().Replans
	res, err := tc.coord.Execute(ctx, cluster.Request{SQL: vipQuery})
	if err != nil {
		t.Fatal(err)
	}
	if full, epochOnly := recs[0].counts(); full != 2 || epochOnly != queries {
		t.Fatalf("shard 0 after its retrain: %d full and %d epoch-only answers, want 2 and %d", full, epochOnly, queries)
	}
	if res.ShardStats.Pruned != 1 || res.ShardStats.Queried != 2 || tc.coord.Counters().Replans == replans {
		t.Fatalf("the retrained shard's prune was not demoted: %+v", res.ShardStats)
	}
	assertSameRows(t, coordStrings(t, res.Rows), directConcat(t, tc, vipQuery), "vip query after the retrain")
}

// modelAt is a model registration as a shard-info answer carries it.
type modelAt struct {
	version     int64
	fingerprint string
}

// TestProbeRacesRetrain retrains a model on an envelope-pruned shard in
// a loop while vip queries run, each probing the shard. The shard's
// history — the model's registration at every catalog epoch — is
// recorded through OnInvalidate. Whatever pair the coordinator holds,
// an epoch and the model's registration, the shard must have had that
// registration at that epoch or a later one: a pair of an epoch with a
// registration older than it would be confirmed by every epoch-only
// probe until the shard's next change. Run it under -race.
func TestProbeRacesRetrain(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 500, cluster.Config{})
	recs := recordInfo(tc)
	ctx := context.Background()
	shard0 := tc.engines[0]
	// A model on a small table retrains in well under a millisecond, so
	// retrains land between a probe's reads often.
	if err := shard0.CreateTable("tiny", minequery.MustSchema(
		minequery.Column{Name: "age", Kind: minequery.KindInt},
		minequery.Column{Name: "segment", Kind: minequery.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	var tiny []minequery.Tuple
	for i := 0; i < 40; i++ {
		tiny = append(tiny, minequery.Tuple{minequery.Int(int64(i % 10)), minequery.Str(segmentFor(int64(i%10), int64(i%8)))})
	}
	if err := shard0.InsertBatch("tiny", tiny); err != nil {
		t.Fatal(err)
	}
	// Padding models make the shard's model list long, and so the time
	// between a shard-info handler's two reads, epoch and models, wide
	// enough for a retrain to fall between them.
	for i := 0; i < 200; i++ {
		if _, err := shard0.TrainDecisionTree(fmt.Sprintf("pad_%03d", i), "seg", "tiny",
			[]string{"age"}, "segment", minequery.TreeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	retrain := func() {
		if _, err := shard0.TrainDecisionTree("tiny_tree", "seg", "tiny",
			[]string{"age"}, "segment", minequery.TreeOptions{}); err != nil {
			t.Error(err)
		}
	}
	current := func() modelAt {
		for _, m := range shard0.ModelSummaries() {
			if m.Name == "tiny_tree" {
				return modelAt{m.Version, m.Fingerprint}
			}
		}
		return modelAt{}
	}
	var mu sync.Mutex
	history := map[int64]modelAt{}
	shard0.OnInvalidate(func(ev minequery.InvalidationEvent) {
		// Retrains run one at a time, and this runs inside each one after
		// its epoch bump: the registration read here is the epoch's.
		m := current()
		mu.Lock()
		history[ev.Epoch] = m
		mu.Unlock()
	})
	retrain()
	if err := tc.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// A retrain starts up to 400µs after a query finishes and the next
	// waits for two more queries, so probes meet retrains at every phase:
	// before, in the middle of and after one.
	const queries = 400
	finished := make(chan struct{}, queries) // one send per query, never blocks
	stop := make(chan struct{})
	retrained := make(chan int)
	go func() {
		jitter := rand.New(rand.NewSource(1))
		n := 0
		defer func() { retrained <- n }()
		for {
			for k := 0; k < 2; k++ {
				select {
				case <-finished:
				case <-stop:
					return
				}
			}
			time.Sleep(time.Duration(jitter.Intn(400)) * time.Microsecond)
			retrain()
			n++
		}
	}()
	type sample struct {
		epoch int64
		model modelAt
	}
	samples := make([]sample, 0, queries)
	for q := 0; q < queries && !t.Failed(); q++ {
		res, err := tc.coord.Execute(ctx, cluster.Request{SQL: vipQuery})
		if err != nil {
			t.Error(err)
			break
		}
		finished <- struct{}{}
		if res.ShardStats.Pruned != 2 {
			t.Errorf("query %d: %+v; retraining tiny_tree must not demote the seg_tree prunes", q, res.ShardStats)
		}
		epoch, mi, ok := tc.coord.CachedModel(0, "tiny_tree")
		if !ok {
			t.Errorf("query %d: the coordinator holds no tiny_tree for shard 0", q)
		}
		samples = append(samples, sample{epoch, modelAt{mi.Version, mi.Fingerprint}})
	}
	close(stop)
	retrains := <-retrained
	if t.Failed() {
		return
	}
	if full, epochOnly := recs[0].counts(); full+epochOnly != queries+1 {
		t.Fatalf("shard 0 answered %d shard-info requests (%d full) for Sync and %d queries; a pruned shard is probed on every query",
			full+epochOnly, full, queries)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, s := range samples {
		seen := false
		for e, m := range history {
			if e >= s.epoch && m == s.model {
				seen = true
				break
			}
		}
		if !seen {
			t.Fatalf("the coordinator paired epoch %d with tiny_tree version %d (%s), which shard 0 never had at that epoch or later (it had %+v)",
				s.epoch, s.model.version, s.model.fingerprint, history[s.epoch])
		}
	}
	full, epochOnly := recs[0].counts()
	t.Logf("%d queries over %d retrains: %d full and %d epoch-only answers from shard 0", queries, retrains, full, epochOnly)
}

// TestPrunedShardProbeSurvivesRestart: a shard restarts with models that
// differ from the planner's and comes back at the epoch the coordinator
// cached its fingerprints at — an epoch counts one process's catalog
// changes, so a restart that makes the same number of them lands on
// the same one — and answers someone else's full shard-info request at
// that epoch. The coordinator's probe must not confirm the old
// fingerprints: the models digest it sends differs, the shard answers
// in full, the prune is demoted and the shard's rows come back.
func TestPrunedShardProbeSurvivesRestart(t *testing.T) {
	tc := newTestCluster(t, 3, []int64{3, 6}, 2000, cluster.Config{})
	recs := recordInfo(tc)
	ctx := context.Background()
	if err := tc.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if res, err := tc.coord.Execute(ctx, cluster.Request{SQL: vipQuery}); err != nil || res.ShardStats.Pruned != 2 {
		t.Fatalf("warm vip query: %+v, %v", res, err)
	}

	// The restarted shard 0 holds the same rows, and a model trained the
	// same way on labels where low-income rows are vip too.
	all := genRows(20260808, 2000)
	shifted := make([]minequery.Tuple, len(all))
	var rows []minequery.Tuple
	for i, row := range all {
		shifted[i] = append(minequery.Tuple(nil), row...)
		if row[1].AsInt() <= 1 {
			shifted[i][4] = minequery.Str("vip")
		}
		if row[2].AsInt() < 3 {
			rows = append(rows, row)
		}
	}
	eng := minequery.New()
	if err := eng.CreateTable("customers", custSchema); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBatch("customers", rows); err != nil {
		t.Fatal(err)
	}
	trainShared(t, eng, shifted)
	if err := eng.Analyze("customers"); err != nil {
		t.Fatal(err)
	}
	if eng.CatalogEpoch() != tc.engines[0].CatalogEpoch() {
		t.Fatalf("the restarted shard is at epoch %d, the old one was at %d", eng.CatalogEpoch(), tc.engines[0].CatalogEpoch())
	}
	tc.engines[0] = eng
	recs[0].next = server.New(eng, server.Config{}).Handler()
	// Someone else — an operator, another coordinator — reads the
	// restarted shard's catalog first, at that same epoch.
	resp, err := http.Get(tc.https[0].URL + "/v1/shard-info")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	res, err := tc.coord.Execute(ctx, cluster.Request{SQL: vipQuery})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardStats.Pruned != 1 || res.ShardStats.Queried != 2 {
		t.Fatalf("the restarted shard's prune was confirmed on the old fingerprints: %+v", res.ShardStats)
	}
	assertSameRows(t, coordStrings(t, res.Rows), directConcat(t, tc, vipQuery), "vip query after the restart")
}
