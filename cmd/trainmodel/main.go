// Command trainmodel trains a mining model from a CSV file and prints
// the model summary together with its per-class upper envelopes — the
// "atomic" predicates Section 4.2 of the paper precomputes at training
// time.
//
// Usage:
//
//	trainmodel -csv data.csv -label class -kind tree
//
// The CSV must have a header row. A column is an INT attribute when the
// non-empty cell of every data row parses as an integer, and its empty
// cells are NULL; every other column is TEXT, empty cells included.
// -kind is one of tree, bayes, rules, kmeans, gmm (clustering kinds
// ignore -label).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"minequery/internal/core"
	"minequery/internal/mining"
	"minequery/internal/mining/cluster"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/nbayes"
	"minequery/internal/mining/rules"
	"minequery/internal/value"
)

func main() {
	csvPath := flag.String("csv", "", "input CSV file with header row")
	label := flag.String("label", "", "label column name (classification kinds)")
	kind := flag.String("kind", "tree", "model kind: tree|bayes|rules|kmeans|gmm")
	k := flag.Int("k", 4, "cluster count (kmeans/gmm)")
	flag.Parse()
	if *csvPath == "" {
		fmt.Fprintln(os.Stderr, "usage: trainmodel -csv data.csv -label class -kind tree")
		os.Exit(1)
	}
	cs, err := loadCSV(*csvPath, *label)
	if err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
	var model mining.Model
	switch *kind {
	case "tree":
		model, err = dtree.TrainColumns("model", "pred", cs, dtree.Options{})
	case "bayes":
		model, err = nbayes.TrainColumns("model", "pred", cs, nbayes.Options{})
	case "rules":
		model, err = rules.TrainColumns("model", "pred", cs, rules.Options{})
	case "kmeans":
		model, err = cluster.TrainKMeansColumns("model", "pred", cs, cluster.Options{K: *k, Seed: 1})
	case "gmm":
		model, err = cluster.TrainGMMColumns("model", "pred", cs, cluster.Options{K: *k, Seed: 1})
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
	der, err := core.UpperEnvelopes(model, core.DefaultOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, "envelopes:", err)
		os.Exit(1)
	}
	fmt.Printf("model %s: %d classes over %v (derived in %v, exact=%v)\n",
		model.Name(), len(model.Classes()), model.InputColumns(), der.Elapsed, der.Exact)
	for _, c := range model.Classes() {
		env := der.Envelopes[c.String()]
		fmt.Printf("\nclass %v:\n  %s\n", c, env)
	}
}

// loadCSV reads a CSV into train columns; the label column (if named) is
// split out as the class label.
func loadCSV(path, label string) (*mining.Columns, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd := csv.NewReader(f)
	recs, err := rd.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("need a header plus at least one data row")
	}
	header := recs[0]
	labelIdx := -1
	for i, h := range header {
		if h == label {
			labelIdx = i
		}
	}
	if label != "" && labelIdx < 0 {
		return nil, fmt.Errorf("no column %q in header", label)
	}
	// A column is INT when every data row's non-empty cell parses.
	isInt := make([]bool, len(header))
	for i := range isInt {
		isInt[i] = true
		for _, rec := range recs[1:] {
			if _, err := strconv.ParseInt(rec[i], 10, 64); err != nil && rec[i] != "" {
				isInt[i] = false
				break
			}
		}
	}
	var cols []value.Column
	for i, h := range header {
		if i == labelIdx {
			continue
		}
		kind := value.KindString
		if isInt[i] {
			kind = value.KindInt
		}
		cols = append(cols, value.Column{Name: h, Kind: kind})
	}
	schema, err := value.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	cs := mining.NewColumns(schema, len(recs)-1)
	row := make(value.Tuple, 0, len(cols))
	for _, rec := range recs[1:] {
		row = row[:0]
		lbl := value.Null()
		for i, cell := range rec {
			switch {
			case i == labelIdx:
				lbl = value.Str(cell)
			case !isInt[i]:
				row = append(row, value.Str(cell))
			case cell == "":
				row = append(row, value.Null())
			default:
				n, _ := strconv.ParseInt(cell, 10, 64) // parsed when the kind was inferred
				row = append(row, value.Int(n))
			}
		}
		if err := cs.Append(row, lbl); err != nil {
			return nil, err
		}
	}
	return cs, nil
}
