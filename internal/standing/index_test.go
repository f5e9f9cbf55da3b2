package standing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"minequery/internal/interval"
	"minequery/internal/opt"
	"minequery/internal/value"
)

// segmentOracle is the index the linear one replaced, without its cap,
// over one part: per column, the part's cuts of every guard's constants
// and, per segment, the bitset of subscriptions whose guard PruneSpec
// keeps there. Its size is segments × subscriptions, so it is a test
// oracle only.
type segmentOracle struct {
	full []uint64
	cols []oracleCol
}

type oracleCol struct {
	ord  int
	cuts interval.Cuts
	segs [][]uint64
}

func newSegmentOracle(ct *compiledTable, p *part) *segmentOracle {
	o := &segmentOracle{full: make([]uint64, ct.words)}
	for _, cs := range p.subs {
		o.full[cs.bit/64] |= 1 << (cs.bit % 64)
	}
	consts := map[int][]value.Value{}
	for _, cs := range p.subs {
		eachConstant(cs.guard, ct.schema, func(ord int, v value.Value) { consts[ord] = append(consts[ord], v) })
	}
	for ord, vals := range consts {
		cuts := interval.NewCuts(vals)
		segs := make([][]uint64, cuts.Segments())
		for s := range segs {
			segs[s] = make([]uint64, ct.words)
		}
		for _, cs := range p.subs {
			for s, ok := range opt.PruneSpec(ct.schema.Col(ord).Name, cuts, cs.guard) {
				if ok {
					segs[s][cs.bit/64] |= 1 << (cs.bit % 64)
				}
			}
		}
		o.cols = append(o.cols, oracleCol{ord: ord, cuts: cuts, segs: segs})
	}
	return o
}

func (o *segmentOracle) candidates(row value.Tuple) []uint64 {
	out := slices.Clone(o.full)
	for _, c := range o.cols {
		seg := c.segs[c.cuts.Stab(row[c.ord])]
		for w := range out {
			out[w] &= seg[w]
		}
	}
	return out
}

// genIndexConst draws a num constant: mostly integers of a wide domain,
// some fractions and negatives.
func genIndexConst(r *rand.Rand) string {
	switch r.Intn(10) {
	case 0:
		return fmt.Sprintf("%d.5", r.Intn(2000))
	case 1:
		return fmt.Sprintf("-%d", r.Intn(50))
	default:
		return fmt.Sprint(r.Intn(2000))
	}
}

// genIndexPredicate draws a WHERE for the index oracle: every comparison
// operator, IN lists with NULLs, comparisons with NULL, AND, OR, NOT,
// other columns and mining atoms (which the guard turns into regions).
func genIndexPredicate(r *rand.Rand, models []sweepModel, depth int) string {
	if depth > 0 && r.Intn(3) > 0 {
		op := " AND "
		if r.Intn(2) == 0 {
			op = " OR "
		}
		parts := make([]string, 2+r.Intn(2))
		for i := range parts {
			parts[i] = genIndexPredicate(r, models, depth-1)
		}
		body := "(" + strings.Join(parts, op) + ")"
		if r.Intn(6) == 0 {
			return "NOT " + body
		}
		return body
	}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	switch r.Intn(12) {
	case 0, 1:
		if len(models) > 0 {
			m := models[r.Intn(len(models))]
			return fmt.Sprintf("%s.%s = %s", m.alias, m.predCol, sweepLiteral(m.classes[r.Intn(len(m.classes))]))
		}
		return "num = NULL"
	case 2:
		vals := []string{genIndexConst(r), genIndexConst(r)}
		if r.Intn(2) == 0 {
			vals = append(vals, "NULL")
		}
		return "num IN (" + strings.Join(vals, ", ") + ")"
	case 3:
		return fmt.Sprintf("num %s NULL", ops[r.Intn(len(ops))])
	case 4:
		return fmt.Sprintf("cat %s 'c%d'", ops[r.Intn(len(ops))], r.Intn(8))
	case 5:
		return fmt.Sprintf("id %s %d", ops[r.Intn(len(ops))], r.Intn(100))
	default:
		return fmt.Sprintf("num %s %s", ops[r.Intn(len(ops))], genIndexConst(r))
	}
}

// TestIntervalIndexMatchesSegmentOracle: over random guard sets that
// put more than 300 distinct constants on num, a row's candidates in
// each part's index are exactly the uncapped per-segment oracle's over
// that part's cuts, and the table's candidates are the OR of the two,
// for rows whose num is NULL, NaN, ±Inf, −0, out of every range, on a
// constant or between two.
func TestIntervalIndexMatchesSegmentOracle(t *testing.T) {
	const seed = 20261017
	cat, models := buildSweepCatalog(t, seed)
	r := rand.New(rand.NewSource(seed))
	for iter := 0; iter < 12; iter++ {
		s := NewSet(cat, Options{})
		var nums []value.Value
		for i, nSubs := 0, 250+r.Intn(100); i < nSubs; i++ {
			n := r.Intn(3)
			perm := r.Perm(len(models))
			sql := "SELECT * FROM t"
			var in []sweepModel
			for _, k := range perm[:n] {
				m := models[k]
				in = append(in, m)
				sql += fmt.Sprintf(" PREDICTION JOIN %s AS %s ON", m.name, m.alias)
				for j, c := range m.onCols {
					if j > 0 {
						sql += " AND"
					}
					sql += fmt.Sprintf(" %s.%s = t.%s", m.alias, c, c)
				}
			}
			sql += " WHERE " + genIndexPredicate(r, in, 3)
			if _, err := s.Subscribe(sql); err != nil {
				t.Fatalf("subscribe %q: %v", sql, err)
			}
		}
		ct := s.snapshot("t")
		parts := []*part{ct.free, ct.joined}
		oracles := []*segmentOracle{newSegmentOracle(ct, ct.free), newSegmentOracle(ct, ct.joined)}
		numOrd := ct.schema.Ordinal("num")
		for _, o := range oracles {
			for _, c := range o.cols {
				if c.ord == numOrd {
					nums = append(nums, c.cuts...)
				}
			}
		}
		nums = interval.NewCuts(nums)
		if len(nums) <= 300 {
			t.Fatalf("iter %d: %d distinct constants on num, want more than 300", iter, len(nums))
		}
		probes := []value.Value{
			value.Null(), value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
			value.Float(math.Copysign(0, -1)), value.Int(0), value.Int(-1000), value.Int(1 << 40),
		}
		for _, v := range nums {
			probes = append(probes, v, value.Float(v.AsFloat()+0.25), value.Float(v.AsFloat()-0.25))
		}
		words := ct.words
		got := make([]uint64, 3*words)
		for _, num := range probes {
			row := value.Tuple{value.Int(int64(r.Intn(120) - 10)), value.Str(fmt.Sprintf("c%d", r.Intn(9))), num}
			switch r.Intn(10) {
			case 0:
				row[0] = value.Null()
			case 1:
				row[1] = value.Null()
			}
			union := make([]uint64, words)
			for k, p := range parts {
				p.index.candidates(row, got[:words], got[words:2*words])
				want := oracles[k].candidates(row)
				if !slices.Equal(got[:words], want) {
					t.Fatalf("iter %d part %d row %v: candidates %x, oracle %x", iter, k, row, got[:words], want)
				}
				for w := range union {
					union[w] |= want[w]
				}
			}
			ct.candidates(row, got[:words], got[words:])
			if !slices.Equal(got[:words], union) {
				t.Fatalf("iter %d row %v: table candidates %x, OR of the oracles %x", iter, row, got[:words], union)
			}
		}
	}
}

// TestIntervalIndexCoversBusyColumn: a thousand range subscriptions with
// distinct constants on one column are all indexed, so a row is
// evaluated against the subscriptions it matches and at most one more
// (the one whose inclusive upper bound is the cut just below it).
func TestIntervalIndexCoversBusyColumn(t *testing.T) {
	cat := newTestCatalog(t)
	s := NewSet(cat, Options{Queue: 1 << 14})
	r := rand.New(rand.NewSource(5))
	used := map[int]bool{}
	constant := func() int {
		for {
			if v := r.Intn(100_000); !used[v] {
				used[v] = true
				return v
			}
		}
	}
	for i := 0; i < 1000; i++ {
		lo := constant()
		hi := lo + 20 + r.Intn(400)
		for used[hi] {
			hi++
		}
		used[hi] = true
		if _, err := s.Subscribe(fmt.Sprintf("SELECT id FROM events WHERE num >= %d AND num <= %d", lo, hi)); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([]value.Tuple, 500)
	for i := range rows {
		rows[i] = eventRow(int64(i), int64(r.Intn(100_500)), "a")
	}
	s.EvalBatch("events", rows, 1)
	st := s.Stats()
	if st.Matches == 0 || st.Evals > st.Matches+int64(len(rows)) {
		t.Fatalf("%d evaluations for %d matches over %d rows, want at most matches plus one a row",
			st.Evals, st.Matches, len(rows))
	}
	t.Logf("%d rows: %d matches, %d evaluations", len(rows), st.Matches, st.Evals)
}
