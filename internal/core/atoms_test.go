package core

import (
	"sort"
	"strings"
	"testing"

	"minequery/internal/sqlparse"
)

// TestEnvelopeCacheKeysPinned fixes the exact cache key each of the
// five mining-predicate shapes is memoized under. The keys are shared
// state: the daemon's envelope cache, its hit ratio and the standing
// set's region interning all hang off these strings, so a change here
// is a behaviour change, not a refactor.
func TestEnvelopeCacheKeysPinned(t *testing.T) {
	f := newRewriteFixture(t)
	fans, _ := f.cat.Model("fans")
	risk, _ := f.cat.Model("risk")
	const (
		joinFans = " PREDICTION JOIN fans AS m ON m.age = customers.age AND m.income = customers.income"
		joinRisk = " PREDICTION JOIN risk AS r ON r.age = customers.age AND r.income = customers.income"
	)
	cases := []struct {
		name, from, where string
		want              []string
	}{
		{"eq", joinFans, "m.segment_pred = 'fan'",
			[]string{`eq|` + fans.Fingerprint + `|3:"fan"`}},
		{"eq label outside the class set", joinFans, "m.segment_pred = 'nosuch'",
			[]string{`eq|` + fans.Fingerprint + `|3:"nosuch"`}},
		{"eq label of another kind", joinFans, "m.segment_pred = 1",
			[]string{`eq|` + fans.Fingerprint + `|1:1`}},
		{"ne", joinFans, "m.segment_pred <> 'fan'",
			[]string{`ne:3:"fan"|` + fans.Fingerprint + `|3:"casual"`}},
		{"ne label outside the class set", joinFans, "m.segment_pred <> 'nosuch'",
			[]string{`ne:3:"nosuch"|` + fans.Fingerprint + `|3:"casual",3:"fan"`}},
		{"in, labels sorted", joinFans, "m.segment_pred IN ('fan', 'casual')",
			[]string{`in|` + fans.Fingerprint + `|3:"casual",3:"fan"`}},
		{"in, mixed kinds and an unknown label", joinFans, "m.segment_pred IN ('fan', 1, 'nosuch')",
			[]string{`in|` + fans.Fingerprint + `|1:1,3:"fan",3:"nosuch"`}},
		{"model-model, two models without a common class", joinFans + joinRisk, "m.segment_pred = r.risk",
			[]string{`mm:` + risk.Fingerprint + `|` + fans.Fingerprint + `|`}},
		{"model-model, operands swapped", joinFans + joinRisk, "r.risk = m.segment_pred",
			[]string{`mm:` + fans.Fingerprint + `|` + risk.Fingerprint + `|`}},
		{"model-model, one model under two aliases",
			joinFans + " PREDICTION JOIN fans AS n ON n.age = customers.age AND n.income = customers.income",
			"m.segment_pred = n.segment_pred",
			[]string{`mm:` + fans.Fingerprint + `|` + fans.Fingerprint + `|3:"casual",3:"fan"`}},
		{"model-data, data column lowercased", joinRisk, "r.risk = Segment",
			[]string{`md:segment|` + risk.Fingerprint + `|3:"hi",3:"lo"`}},
		{"model-data, prediction on the right", joinRisk, "segment = r.risk",
			[]string{`md:segment|` + risk.Fingerprint + `|3:"hi",3:"lo"`}},
		{"two models in one predicate", joinFans + joinRisk, "m.segment_pred = 'fan' OR r.risk = 'hi'",
			[]string{`eq|` + fans.Fingerprint + `|3:"fan"`, `eq|` + risk.Fingerprint + `|3:"hi"`}},
		{"no envelope: ordering operator, negation, data atom", joinFans,
			"m.segment_pred > 'a' AND NOT (m.segment_pred = 'fan') AND age = 1", nil},
	}
	for _, c := range cases {
		q, err := sqlparse.Parse("SELECT id FROM customers" + c.from + " WHERE " + c.where)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cache := newMapEnvCache()
		if _, err := RewriteQueryCached(q, f.cat, 0, cache); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got []string
		for k := range cache.m {
			got = append(got, k)
		}
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s: cache keys\n  %s\nwant\n  %s", c.name, strings.Join(got, "\n  "), strings.Join(c.want, "\n  "))
		}
	}
}
