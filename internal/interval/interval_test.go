package interval

import (
	"math/rand"
	"sort"
	"testing"

	"minequery/internal/value"
)

// atom is one `x op v` comparison, evaluated by value.Compare alone: the
// thing an Interval stands for, spelt without one.
type atom struct {
	op string
	v  value.Value
}

func (a atom) holds(x value.Value) bool {
	c := value.Compare(x, a.v)
	switch a.op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return c == 0
}

func (a atom) interval() Interval {
	switch a.op {
	case "<":
		return Below(a.v, false)
	case "<=":
		return Below(a.v, true)
	case ">":
		return Above(a.v, false)
	case ">=":
		return Above(a.v, true)
	}
	return Point(a.v)
}

var ops = []string{"<", "<=", ">", ">=", "="}

// domain is one kind of column: the values bounds and cuts are drawn
// from (few, so equal-valued bounds of differing inclusivity and lo == hi
// come up constantly), and sample points fine enough that every
// non-empty interval over those values holds one.
type domain struct {
	name   string
	bound  func(r *rand.Rand) value.Value
	points []value.Value
}

func domains() []domain {
	var quarters, text []value.Value
	for q := -8; q <= 48; q++ { // -2 .. 12 in steps of 1/4
		quarters = append(quarters, value.Float(float64(q)/4))
	}
	for c := 'a'; c <= 'k'; c++ {
		text = append(text, value.Str(string(c)), value.Str(string(c)+"m"))
	}
	halves := func(r *rand.Rand) float64 { return float64(r.Intn(21)) / 2 } // 0 .. 10
	return []domain{
		{"int", func(r *rand.Rand) value.Value { return value.Int(int64(r.Intn(11))) }, quarters},
		{"float", func(r *rand.Rand) value.Value { return value.Float(halves(r)) }, quarters},
		{"mixed", func(r *rand.Rand) value.Value {
			if r.Intn(2) == 0 {
				return value.Int(int64(r.Intn(11)))
			}
			return value.Float(halves(r))
		}, quarters},
		{"text", func(r *rand.Rand) value.Value { return value.Str(string(rune('b' + r.Intn(9)))) }, text},
	}
}

// intervalOverlaps is the reference: a verbatim copy of the per-partition
// test opt/prune.go ran before Span replaced it (one compare per
// segment). Span must keep exactly the segments it kept.
func intervalOverlaps(ilo *value.Value, iloInc bool, ihi *value.Value, ihiInc bool, plo, phi *value.Value) bool {
	if ihi != nil && plo != nil {
		c := value.Compare(*ihi, *plo)
		if c < 0 || (c == 0 && !ihiInc) {
			return false
		}
	}
	if ilo != nil && phi != nil {
		// phi is exclusive: a predicate starting at or beyond it misses.
		if value.Compare(*ilo, *phi) >= 0 {
			return false
		}
	}
	return true
}

// refOverlaps asks the reference about segment p of cuts, whose covering
// interval is [cuts[p-1], cuts[p]) with nil for an unbounded side.
func refOverlaps(cuts Cuts, p int, iv Interval) bool {
	var ilo, ihi, plo, phi *value.Value
	lo, loInc, hasLo := iv.Lo()
	hi, hiInc, hasHi := iv.Hi()
	if hasLo {
		ilo = &lo
	}
	if hasHi {
		ihi = &hi
	}
	if p > 0 {
		plo = &cuts[p-1]
	}
	if p < len(cuts) {
		phi = &cuts[p]
	}
	return intervalOverlaps(ilo, loInc, ihi, hiInc, plo, phi)
}

// TestIntervalMatchesComparisons: an Interval built by intersecting
// comparisons holds exactly the points every one of them holds on, and
// is Empty exactly when there is no such point.
func TestIntervalMatchesComparisons(t *testing.T) {
	for _, d := range domains() {
		r := rand.New(rand.NewSource(24))
		for trial := 0; trial < 3000; trial++ {
			atoms := make([]atom, 1+r.Intn(3))
			var iv Interval
			for i := range atoms {
				atoms[i] = atom{ops[r.Intn(len(ops))], d.bound(r)}
				iv = iv.Intersect(atoms[i].interval())
			}
			var inside []value.Value
			for _, x := range d.points {
				want := true
				for _, a := range atoms {
					want = want && a.holds(x)
				}
				if want {
					inside = append(inside, x)
				}
				if got := iv.Contains(x); got != want {
					t.Fatalf("%s: %v: Contains(%v) = %v, the comparisons say %v", d.name, atoms, x, got, want)
				}
			}
			if iv.Empty() != (len(inside) == 0) {
				t.Fatalf("%s: %v: Empty() = %v, sampled points satisfying every comparison: %v", d.name, atoms, iv.Empty(), inside)
			}
			// One value: a single sampled point inside, sitting on the
			// bound (an open gap between two bounds also holds one sample).
			lo, _, hasLo := iv.Lo()
			wantPoint := len(inside) == 1 && hasLo && value.Compare(lo, inside[0]) == 0
			if iv.IsPoint() != wantPoint {
				t.Fatalf("%s: %v: IsPoint() = %v, points inside: %v", d.name, atoms, iv.IsPoint(), inside)
			}
		}
	}
}

// TestIntersectTieRule pins the tie rule where it is visible: the bound
// Intersect keeps when two of equal value meet.
func TestIntersectTieRule(t *testing.T) {
	five, fiveF := value.Int(5), value.Float(5)
	for _, tc := range []struct {
		name    string
		iv      Interval
		wantInc bool
	}{
		{"lo: >= then >", Above(five, true).Intersect(Above(fiveF, false)), false},
		{"lo: > then >=", Above(fiveF, false).Intersect(Above(five, true)), false},
		{"lo: >= then >=", Above(five, true).Intersect(Above(fiveF, true)), true},
	} {
		if _, inc, ok := tc.iv.Lo(); !ok || inc != tc.wantInc {
			t.Errorf("%s: lower bound inclusive = %v (bounded %v), want %v", tc.name, inc, ok, tc.wantInc)
		}
	}
	for _, tc := range []struct {
		name    string
		iv      Interval
		wantInc bool
	}{
		{"hi: <= then <", Below(five, true).Intersect(Below(fiveF, false)), false},
		{"hi: < then <=", Below(fiveF, false).Intersect(Below(five, true)), false},
		{"hi: <= then <=", Below(five, true).Intersect(Below(fiveF, true)), true},
	} {
		if _, inc, ok := tc.iv.Hi(); !ok || inc != tc.wantInc {
			t.Errorf("%s: upper bound inclusive = %v (bounded %v), want %v", tc.name, inc, ok, tc.wantInc)
		}
	}
	var zero Interval
	if _, _, ok := zero.Lo(); ok || zero.Empty() || zero.IsPoint() || !zero.Contains(five) {
		t.Error("the zero Interval must be unbounded: not empty, not a point, holding everything")
	}
	null := Above(value.Null(), true).Intersect(Below(value.Null(), true))
	_, _, hasLo := null.Lo()
	_, _, hasHi := null.Hi()
	if hasLo || hasHi || null.Empty() || !null.Contains(five) {
		t.Errorf("a NULL bound must leave its side unbounded, got %+v", null)
	}
}

// TestSpanMatchesReference is the soundness rule, tested once: over
// random cuts and intervals of every domain, Span keeps exactly the
// segments the per-segment reference keeps, and — stated directly — the
// segment holding any value inside the interval is within the span:
// skipping the rest skips work, never rows.
func TestSpanMatchesReference(t *testing.T) {
	for _, d := range domains() {
		r := rand.New(rand.NewSource(7))
		for trial := 0; trial < 3000; trial++ {
			vals := make([]value.Value, r.Intn(7))
			for i := range vals {
				vals[i] = d.bound(r)
			}
			cuts := NewCuts(vals)
			for i := 1; i < len(cuts); i++ {
				if value.Compare(cuts[i-1], cuts[i]) >= 0 {
					t.Fatalf("%s: NewCuts not strictly increasing: %v", d.name, cuts)
				}
			}
			var iv Interval
			for n := r.Intn(3); n >= 0; n-- {
				iv = iv.Intersect(atom{ops[r.Intn(len(ops))], d.bound(r)}.interval())
			}
			first, last := cuts.Span(iv)
			for p := 0; p < cuts.Segments(); p++ {
				if got, want := first <= p && p <= last, refOverlaps(cuts, p, iv); got != want {
					t.Fatalf("%s: cuts %v, interval %+v: Span = %d..%d keeps segment %d: %v, reference: %v",
						d.name, cuts, iv, first, last, p, got, want)
				}
			}
			for _, x := range d.points {
				if s := cuts.Stab(x); iv.Contains(x) && (s < first || s > last) {
					t.Fatalf("%s: cuts %v, interval %+v: %v is inside, lives in segment %d, Span = %d..%d",
						d.name, cuts, iv, x, s, first, last)
				}
			}
		}
	}
}

// TestStab: the segment holding v is the number of cuts at or below it —
// a value equal to a cut belongs to the segment the cut opens — Span of
// the point agrees, and NULL files in segment 0.
func TestStab(t *testing.T) {
	for _, d := range domains() {
		r := rand.New(rand.NewSource(11))
		for trial := 0; trial < 500; trial++ {
			vals := make([]value.Value, r.Intn(7))
			for i := range vals {
				vals[i] = d.bound(r)
			}
			cuts := NewCuts(vals)
			if got := cuts.Stab(value.Null()); got != 0 {
				t.Fatalf("%s: cuts %v: Stab(NULL) = %d, want 0", d.name, cuts, got)
			}
			for _, x := range d.points {
				want := 0
				for _, c := range cuts {
					if value.Compare(c, x) <= 0 {
						want++
					}
				}
				got := cuts.Stab(x)
				if first, last := cuts.Span(Point(x)); got != want || first != got || last != got {
					t.Fatalf("%s: cuts %v: Stab(%v) = %d, want %d; Span(Point) = %d..%d", d.name, cuts, x, got, want, first, last)
				}
			}
		}
	}
}

// TestNewCutsTieRepresentative: of values that tie under value.Compare,
// as Int(5) and Float(5) do, NewCuts keeps the one a sort.Slice by
// value.Compare puts first, as it always has: short inputs keep the first
// in input order, and longer ones what the pattern-defeating quicksort
// leaves first.
func TestNewCutsTieRepresentative(t *testing.T) {
	kinds := func(c Cuts) string {
		out := make([]byte, len(c))
		for i, v := range c {
			out[i] = 'F'
			if v.Kind() == value.KindInt {
				out[i] = 'I'
			}
		}
		return string(out)
	}
	if got := kinds(NewCuts([]value.Value{value.Float(5), value.Int(3), value.Int(5)})); got != "IF" {
		t.Fatalf("NewCuts(5.0, 3, 5) keeps kinds %s, want IF", got)
	}
	if got := kinds(NewCuts([]value.Value{value.Int(5), value.Float(5)})); got != "I" {
		t.Fatalf("NewCuts(5, 5.0) keeps kinds %s, want I", got)
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		vals := make([]value.Value, 1+r.Intn(300))
		for i := range vals {
			if k := int64(r.Intn(40)); r.Intn(2) == 0 {
				vals[i] = value.Int(k)
			} else {
				vals[i] = value.Float(float64(k))
			}
		}
		ref := append([]value.Value(nil), vals...)
		sort.Slice(ref, func(i, j int) bool { return value.Compare(ref[i], ref[j]) < 0 })
		want := Cuts{}
		for _, v := range ref {
			if len(want) == 0 || value.Compare(want[len(want)-1], v) != 0 {
				want = append(want, v)
			}
		}
		if got := NewCuts(vals); kinds(got) != kinds(want) {
			t.Fatalf("trial %d: NewCuts keeps kinds %s, sort.Slice order %s", trial, kinds(got), kinds(want))
		}
	}
}

// TestIntervalAlloc: an Interval is a value and Cuts a slice someone else
// owns — tightening, testing, stabbing and building cuts in place
// allocate nothing.
func TestIntervalAlloc(t *testing.T) {
	cuts := Cuts{value.Int(10), value.Float(20.5), value.Int(30)}
	text := Cuts{value.Str("f"), value.Str("p")}
	a, b := Above(value.Int(5), true), Below(value.Float(25), false)
	s := Above(value.Str("c"), false).Intersect(Below(value.Str("x"), true))
	vals := make([]value.Value, 0, 4)
	sink := 0
	for name, fn := range map[string]func(){
		"Intersect": func() {
			if a.Intersect(b).Intersect(Point(value.Int(7))).Empty() {
				sink++
			}
		},
		"Contains": func() {
			if a.Intersect(b).Contains(value.Float(12)) && s.Contains(value.Str("q")) {
				sink++
			}
		},
		"Stab": func() { sink += cuts.Stab(value.Int(20)) + text.Stab(value.Str("g")) },
		"NewCuts": func() {
			vals = append(vals[:0], value.Int(30), value.Float(10), value.Int(20), value.Int(10))
			sink += len(NewCuts(vals))
		},
		"Span": func() {
			f, l := cuts.Span(a.Intersect(b))
			tf, tl := text.Span(s)
			sink += f + l + tf + tl
		},
	} {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
	if sink == 0 {
		t.Error("the measured calls did not run")
	}
}
