package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"minequery"
	"minequery/internal/demo"
	"minequery/internal/server"
	"minequery/internal/wire"
)

// TestDemoShardInfoLabelsAreClasses: a -demo-shard node answers GET
// /v1/shard-info with each model's class labels as the labels
// themselves — budget, not the SQL literal "budget" — that is, the
// distinct segment values the demo models are trained on.
func TestDemoShardInfoLabelsAreClasses(t *testing.T) {
	m, err := buildShardMap("customers", "income", "range", "3,6",
		[]string{"http://shard-0.invalid", "http://shard-1.invalid", "http://shard-2.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	eng := minequery.New()
	if err := demo.SeedShard(eng, m, 0, 2000); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(server.New(eng, server.Config{}).Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v1/shard-info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info wire.ShardInfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("shard-info: %d, %v", resp.StatusCode, err)
	}

	res, err := eng.Query(context.Background(), "SELECT segment FROM training")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range res.Rows {
		if s := r[0].AsString(); !slices.Contains(want, s) {
			want = append(want, s)
		}
	}
	slices.Sort(want)
	if len(info.Models) != 2 || len(want) < 2 {
		t.Fatalf("shard-info lists %d models, the training table %d labels; the demo trains 2 models on 3", len(info.Models), len(want))
	}
	for _, mi := range info.Models {
		got := slices.Clone(mi.Classes)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("model %s: shard-info labels %q, its classes are %q", mi.Name, mi.Classes, want)
		}
	}
}
