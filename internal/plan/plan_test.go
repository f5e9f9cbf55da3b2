package plan

import (
	"strings"
	"testing"

	"minequery/internal/expr"
	"minequery/internal/interval"
	"minequery/internal/value"
)

func samplePlan() Node {
	return &Project{
		Cols: []string{"id"},
		Child: &Filter{
			Pred: expr.Cmp{Col: "cat", Op: expr.OpEq, Val: value.Str("x")},
			Child: &IndexSeek{
				Table: "t", Index: "ix",
				EqVals: []value.Value{value.Str("x")},
			},
		},
	}
}

func TestExplainShape(t *testing.T) {
	out := Explain(samplePlan())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("explain lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Project") ||
		!strings.HasPrefix(strings.TrimSpace(lines[1]), "Filter") ||
		!strings.HasPrefix(strings.TrimSpace(lines[2]), "IndexSeek") {
		t.Errorf("unexpected explain output:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "  ") || !strings.HasPrefix(lines[2], "    ") {
		t.Error("children should be indented")
	}
}

func TestPathOfAndChanged(t *testing.T) {
	cases := []struct {
		n    Node
		want AccessPath
	}{
		{&SeqScan{Table: "t"}, AccessSeqScan},
		{&Filter{Child: &SeqScan{Table: "t"}, Pred: expr.TrueExpr{}}, AccessSeqScan},
		{samplePlan(), AccessIndex},
		{&IndexUnion{Table: "t"}, AccessIndexUnion},
		{&ConstScan{Table: "t"}, AccessConstant},
		{&Limit{N: 1, Child: &Predict{Child: &ConstScan{Table: "t"}}}, AccessConstant},
	}
	for _, c := range cases {
		if got := PathOf(c.n); got != c.want {
			t.Errorf("PathOf(%s) = %s, want %s", Describe(c.n), got, c.want)
		}
	}
	if Changed(&SeqScan{Table: "t"}) {
		t.Error("bare scan is not a changed plan")
	}
	if !Changed(samplePlan()) || !Changed(&ConstScan{Table: "t"}) {
		t.Error("index and constant plans are changed plans")
	}
}

func TestDescribeRendering(t *testing.T) {
	seek := &IndexSeek{
		Table: "t", Index: "ix",
		EqVals: []value.Value{value.Int(1)},
		Range:  interval.Above(value.Int(5), true).Intersect(interval.Below(value.Int(9), false)),
	}
	d := Describe(seek)
	for _, want := range []string{"t.ix", "=1", ">=5", "<9"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe %q missing %q", d, want)
		}
	}
	u := &IndexUnion{Table: "t", Seeks: []*IndexSeek{seek, seek}}
	if !strings.Contains(Describe(u), ", ") {
		t.Error("union should list seeks")
	}
	p := &Predict{Model: "m", As: "m.cls", Version: 3}
	if !strings.Contains(Describe(p), "v3") {
		t.Error("predict should show pinned version")
	}
	if Describe(&Project{}) != "Project(*)" {
		t.Error("empty project should render as *")
	}
	for _, a := range []AccessPath{AccessSeqScan, AccessIndex, AccessIndexUnion, AccessConstant} {
		if a.String() == "?" {
			t.Error("unnamed access path")
		}
	}
}

func TestSignatureDistinguishesPlans(t *testing.T) {
	a := Signature(&SeqScan{Table: "t"})
	b := Signature(samplePlan())
	c := Signature(&Filter{Child: &SeqScan{Table: "t"}, Pred: expr.TrueExpr{}})
	if a == b || b == c || a == c {
		t.Error("signatures should differ across plan shapes")
	}
	if Signature(samplePlan()) != Signature(samplePlan()) {
		t.Error("signatures must be deterministic")
	}
}
