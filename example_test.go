package minequery_test

import (
	"context"
	"fmt"
	"log"

	"minequery"
)

// ExampleEngine is the quick start: store a table, train a decision tree
// on it, and query with a mining predicate. Training derives the tree's
// upper envelope for each class, and the query adds the envelope of
// risk = 'high' to its WHERE, so only the rows the envelope admits reach
// the prediction join.
func ExampleEngine() {
	eng := minequery.New()
	if err := eng.CreateTable("customers", minequery.MustSchema(
		minequery.Column{Name: "id", Kind: minequery.KindInt},
		minequery.Column{Name: "age", Kind: minequery.KindInt},
		minequery.Column{Name: "income", Kind: minequery.KindInt},
		minequery.Column{Name: "risk", Kind: minequery.KindString},
	)); err != nil {
		log.Fatal(err)
	}
	var rows []minequery.Tuple
	for i := 0; i < 1200; i++ {
		age, income := int64(i%12), int64(i/12%10)
		risk := "low"
		if age <= 1 && income >= 8 {
			risk = "high"
		}
		rows = append(rows, minequery.Tuple{
			minequery.Int(int64(i)), minequery.Int(age), minequery.Int(income), minequery.Str(risk),
		})
	}
	if err := eng.InsertBatch("customers", rows); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.TrainDecisionTree("risk_model", "risk", "customers",
		[]string{"age", "income"}, "risk", minequery.TreeOptions{}); err != nil {
		log.Fatal(err)
	}
	env, _ := eng.Envelope("risk_model", minequery.Str("high"))
	fmt.Println("envelope:", env)

	res, err := eng.Query(context.Background(), `SELECT id FROM customers
		PREDICTION JOIN risk_model AS m ON m.age = customers.age AND m.income = customers.income
		WHERE m.risk = 'high'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rows:", len(res.Rows))
	// Output:
	// envelope: (age <= 1.5) AND (income > 7.5)
	// rows: 40
}
