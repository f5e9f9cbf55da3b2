// Package demo is the database minequeryd -demo, -demo-shard and -coord
// and mqshell load: a customers table whose rare "vip" segment the
// decision tree risk_tree and the naive Bayes model seg_bayes predict
// from age and income, so that the selective mining predicate
// m.risk = 'vip' gains an envelope over age and income that the planner,
// and a coordinator's shard pruning, can use.
//
// A fleet slices the same rows by its shard map. Every node of a fleet
// trains the models on the whole row stream, staged on a training
// table, so shards and the coordinator's planner carry identical model
// fingerprints — the invariant the coordinator's envelope-driven shard
// pruning validates at runtime.
package demo

import (
	"math/rand"

	"minequery"
	"minequery/internal/cluster"
)

// schema is the customers table's shape.
func schema() *minequery.Schema {
	return minequery.MustSchema(
		minequery.Column{Name: "id", Kind: minequery.KindInt},
		minequery.Column{Name: "age", Kind: minequery.KindInt},
		minequery.Column{Name: "income", Kind: minequery.KindInt},
		minequery.Column{Name: "visits", Kind: minequery.KindInt},
		minequery.Column{Name: "segment", Kind: minequery.KindString},
	)
}

// rows returns the first n rows of the deterministic seed-7 stream.
func rows(n int) []minequery.Tuple {
	r := rand.New(rand.NewSource(7))
	out := make([]minequery.Tuple, 0, n)
	for i := 0; i < n; i++ {
		age := int64(r.Intn(10))
		income := int64(r.Intn(8))
		seg := "regular"
		switch {
		case age == 0 && income == 7:
			seg = "vip"
		case income <= 1:
			seg = "budget"
		}
		out = append(out, minequery.Tuple{
			minequery.Int(int64(i)), minequery.Int(age), minequery.Int(income),
			minequery.Int(int64(r.Intn(50))), minequery.Str(seg),
		})
	}
	return out
}

// Seed loads the single-node demo database of n rows: the models
// trained on customers itself, the indexes ix_age_income and ix_income,
// and the column-group sidecar, so sequential scans take the vectorized
// path.
func Seed(eng *minequery.Engine, n int) error {
	if err := eng.CreateTable("customers", schema()); err != nil {
		return err
	}
	if err := eng.InsertBatch("customers", rows(n)); err != nil {
		return err
	}
	if err := eng.Analyze("customers"); err != nil {
		return err
	}
	if err := trainModels(eng, "customers"); err != nil {
		return err
	}
	if err := eng.CreateIndex("ix_age_income", "customers", "age", "income"); err != nil {
		return err
	}
	if err := eng.CreateIndex("ix_income", "customers", "income"); err != nil {
		return err
	}
	if err := eng.EnableColumnar("customers"); err != nil {
		return err
	}
	return eng.Analyze("customers")
}

// SeedShard loads slice shard of an n-row demo fleet: the rows m routes
// to it, indexed on income, and the fleet's models.
func SeedShard(eng *minequery.Engine, m *cluster.Map, shard, n int) error {
	all := rows(n)
	if err := eng.CreateTable("customers", schema()); err != nil {
		return err
	}
	mine := make([]minequery.Tuple, 0, n/m.NumShards()+1)
	for _, row := range all {
		if m.ShardFor(row[2]) == shard {
			mine = append(mine, row)
		}
	}
	if err := eng.InsertBatch("customers", mine); err != nil {
		return err
	}
	if err := trainStaged(eng, all); err != nil {
		return err
	}
	if err := eng.CreateIndex("ix_income", "customers", "income"); err != nil {
		return err
	}
	return eng.Analyze("customers")
}

// Planner builds a coordinator's planning engine for an n-row demo
// fleet: the schema and the fleet's models, no rows.
func Planner(n int) (*minequery.Engine, error) {
	eng := minequery.New()
	if err := eng.CreateTable("customers", schema()); err != nil {
		return nil, err
	}
	if err := trainStaged(eng, rows(n)); err != nil {
		return nil, err
	}
	return eng, nil
}

// trainStaged stages all rows' model columns on a training table and
// trains the models from it.
func trainStaged(eng *minequery.Engine, all []minequery.Tuple) error {
	if err := eng.CreateTable("training", minequery.MustSchema(
		minequery.Column{Name: "age", Kind: minequery.KindInt},
		minequery.Column{Name: "income", Kind: minequery.KindInt},
		minequery.Column{Name: "segment", Kind: minequery.KindString},
	)); err != nil {
		return err
	}
	stage := make([]minequery.Tuple, len(all))
	for i, row := range all {
		stage[i] = minequery.Tuple{row[1], row[2], row[4]}
	}
	if err := eng.InsertBatch("training", stage); err != nil {
		return err
	}
	return trainModels(eng, "training")
}

// trainModels trains risk_tree and seg_bayes on table's age, income and
// segment.
func trainModels(eng *minequery.Engine, table string) error {
	if _, err := eng.TrainDecisionTree("risk_tree", "risk", table,
		[]string{"age", "income"}, "segment", minequery.TreeOptions{}); err != nil {
		return err
	}
	_, err := eng.TrainNaiveBayes("seg_bayes", "segment", table,
		[]string{"age", "income"}, "segment", minequery.BayesOptions{})
	return err
}
