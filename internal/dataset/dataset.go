// Package dataset provides deterministic synthetic generators standing
// in for the ten data sets of the paper's Table 2 (nine UCI sets plus
// KDD-cup-99). The originals are not redistributable here, so each
// generator reproduces the schema signature that drives the paper's
// results — attribute count, per-attribute domain size, number of
// classes/clusters, a skewed class-frequency profile, and the geometry
// of class regions — plus the evaluation methodology: test data drawn
// from the same distribution as the training data (the paper doubled
// the training set until the test table exceeded one million rows;
// scaling the test row count scales runtimes uniformly without changing
// selectivities).
//
// Two generation styles model the two kinds of UCI sets:
//
//   - StyleNumeric (Letter, Shuttle, Vehicle, Diabetes, ...): ordered
//     attributes whose class-conditional distributions concentrate
//     around per-class centers, so class regions are roughly
//     axis-aligned boxes — the geometry that makes naive Bayes and
//     clustering envelopes tight in the paper.
//   - StyleCategorical (Chess, Parity5+5, Hypothyroid): unordered
//     attributes where each class perturbs a small signature subset
//     against a shared background — decision-tree friendly, naive-Bayes
//     hostile (the paper observes less impact on such sets).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"minequery/internal/mining"
	"minequery/internal/value"
)

// Style selects the generation model.
type Style uint8

// Generation styles.
const (
	StyleNumeric Style = iota
	StyleCategorical
)

// Attr describes one synthetic attribute: an integer domain [0, Card).
type Attr struct {
	Name string
	// Card is the domain size.
	Card int
}

// Spec describes one synthetic data set.
type Spec struct {
	// Name matches Table 2.
	Name string
	// TrainRows is the paper's training size.
	TrainRows int
	// PaperTestMillions is the paper's test size in millions of rows
	// (reported by the Table 2 reproduction).
	PaperTestMillions float64
	// Classes and Clusters match Table 2.
	Classes  int
	Clusters int
	// Attrs is the attribute schema.
	Attrs []Attr
	// Style picks the generation model.
	Style Style
	// Noise is the label-noise probability.
	Noise float64
	// seedBase decorrelates datasets.
	seedBase int64
}

// model holds the sampled generator parameters for a spec.
type model struct {
	weights []float64 // cumulative mixing weights
	// StyleNumeric: centers[c][a] is class c's center on attribute a;
	// sigma[a] the per-attribute spread.
	centers [][]float64
	sigma   []float64
	// StyleCategorical: shared background value per attribute and the
	// per-class signature attribute subsets and values.
	bg       []int
	sigAttrs [][]int
	sigVals  [][]int
}

// signatureSize is how many attributes carry a categorical class's
// signal.
const signatureSize = 4

// Categorical fidelities: probability of emitting the signature /
// background value instead of a uniform draw.
const (
	bgFidelity  = 0.70
	sigFidelity = 0.88
)

// minRareTrainRows keeps the rarest class learnable: its expected
// training support stays above this many rows.
const minRareTrainRows = 25

// minShare returns the target frequency of the rarest class.
func (s *Spec) minShare() float64 {
	share := float64(minRareTrainRows) / float64(s.TrainRows)
	if share < 3e-4 {
		share = 3e-4 // the KDD-cup-99 regime: very rare attack classes
	}
	cap := 1.0 / float64(s.Classes)
	if share > cap {
		share = cap
	}
	return share
}

func (s *Spec) model() *model {
	r := rand.New(rand.NewSource(s.seedBase + 1))
	m := &model{}
	// Geometric mixing weights: class 0 most common, the rarest near
	// minShare.
	ratio := 1.0
	if s.Classes > 1 {
		ratio = math.Pow(s.minShare(), 1/float64(s.Classes-1))
	}
	raw := make([]float64, s.Classes)
	var sum float64
	for c := range raw {
		raw[c] = math.Pow(ratio, float64(c))
		sum += raw[c]
	}
	cum := 0.0
	m.weights = make([]float64, s.Classes)
	for c := range raw {
		cum += raw[c] / sum
		m.weights[c] = cum
	}
	switch s.Style {
	case StyleNumeric:
		m.centers = make([][]float64, s.Classes)
		m.sigma = make([]float64, len(s.Attrs))
		for a := range s.Attrs {
			m.sigma[a] = float64(s.Attrs[a].Card) / 6.0
			if m.sigma[a] < 0.5 {
				m.sigma[a] = 0.5
			}
		}
		// A shared background center plus per-class deviations on a
		// small subset of attributes: like the real UCI sets, only a few
		// attributes are diagnostic for any one class, and the rest are
		// distributed identically across classes.
		bg := make([]float64, len(s.Attrs))
		for a := range bg {
			bg[a] = float64(s.Attrs[a].Card-1) * (0.35 + 0.3*r.Float64())
		}
		n := signatureSize + 1
		if n > len(s.Attrs) {
			n = len(s.Attrs)
		}
		for c := range m.centers {
			center := append([]float64(nil), bg...)
			for _, a := range r.Perm(len(s.Attrs))[:n] {
				span := float64(s.Attrs[a].Card - 1)
				// Push the class center at least ~2σ away from the
				// background on its signature attributes.
				off := (1.0 + r.Float64()) * 2 * m.sigma[a]
				if r.Intn(2) == 0 {
					off = -off
				}
				v := bg[a] + off
				if v < 0 {
					v = 0
				}
				if v > span {
					v = span
				}
				center[a] = v
			}
			m.centers[c] = center
		}
	case StyleCategorical:
		m.bg = make([]int, len(s.Attrs))
		for a := range m.bg {
			m.bg[a] = r.Intn(s.Attrs[a].Card)
		}
		n := signatureSize
		if n > len(s.Attrs) {
			n = len(s.Attrs)
		}
		m.sigAttrs = make([][]int, s.Classes)
		m.sigVals = make([][]int, s.Classes)
		for c := 0; c < s.Classes; c++ {
			perm := r.Perm(len(s.Attrs))[:n]
			vals := make([]int, n)
			for i, a := range perm {
				v := r.Intn(s.Attrs[a].Card)
				if v == m.bg[a] && s.Attrs[a].Card > 1 {
					v = (v + 1 + r.Intn(s.Attrs[a].Card-1)) % s.Attrs[a].Card
				}
				vals[i] = v
			}
			m.sigAttrs[c] = perm
			m.sigVals[c] = vals
		}
	}
	return m
}

// Schema returns the relational schema of the data set: the attributes
// plus a trailing "label" TEXT column.
func (s *Spec) Schema() *value.Schema {
	cols := make([]value.Column, 0, len(s.Attrs)+1)
	for _, a := range s.Attrs {
		cols = append(cols, value.Column{Name: a.Name, Kind: value.KindInt})
	}
	cols = append(cols, value.Column{Name: "label", Kind: value.KindString})
	return value.MustSchema(cols...)
}

// ClassLabel names class c.
func (s *Spec) ClassLabel(c int) value.Value {
	return value.Str(fmt.Sprintf("%s_c%d", shortName(s.Name), c))
}

func shortName(n string) string {
	out := make([]byte, 0, len(n))
	for i := 0; i < len(n); i++ {
		ch := n[i]
		switch {
		case ch >= 'a' && ch <= 'z':
			out = append(out, ch)
		case ch >= 'A' && ch <= 'Z':
			out = append(out, ch+'a'-'A')
		case ch >= '0' && ch <= '9':
			out = append(out, ch)
		}
	}
	return string(out)
}

// generate produces n rows (attribute tuple + label) from the given
// stream seed.
func (s *Spec) generate(n int, seed int64, emit func(value.Tuple, value.Value)) {
	r := rand.New(rand.NewSource(s.seedBase + seed))
	m := s.model()
	row := make([]int, len(s.Attrs))
	sigOf := make([]int, len(s.Attrs))
	for i := 0; i < n; i++ {
		x := r.Float64()
		cls := 0
		for c, w := range m.weights {
			if x <= w {
				cls = c
				break
			}
		}
		switch s.Style {
		case StyleNumeric:
			for a := range row {
				v := int(math.Round(m.centers[cls][a] + r.NormFloat64()*m.sigma[a]))
				if v < 0 {
					v = 0
				}
				if v >= s.Attrs[a].Card {
					v = s.Attrs[a].Card - 1
				}
				row[a] = v
			}
		case StyleCategorical:
			for a := range sigOf {
				sigOf[a] = -1
			}
			for i, a := range m.sigAttrs[cls] {
				sigOf[a] = m.sigVals[cls][i]
			}
			for a := range row {
				switch {
				case sigOf[a] >= 0 && r.Float64() < sigFidelity:
					row[a] = sigOf[a]
				case sigOf[a] < 0 && r.Float64() < bgFidelity:
					row[a] = m.bg[a]
				default:
					row[a] = r.Intn(s.Attrs[a].Card)
				}
			}
		}
		label := cls
		if s.Noise > 0 && r.Float64() < s.Noise {
			// Mislabel toward the majority class: uniform random labels
			// would swamp the rare classes' small training samples with
			// rows drawn from other distributions, which no real data
			// set does.
			label = 0
		}
		t := make(value.Tuple, len(row))
		for a, v := range row {
			t[a] = value.Int(int64(v))
		}
		emit(t, s.ClassLabel(label))
	}
}

// TrainColumns materializes the training partition as train columns.
func (s *Spec) TrainColumns() *mining.Columns {
	cols := make([]value.Column, len(s.Attrs))
	for i, a := range s.Attrs {
		cols[i] = value.Column{Name: a.Name, Kind: value.KindInt}
	}
	cs := mining.NewColumns(value.MustSchema(cols...), s.TrainRows)
	s.generate(s.TrainRows, 1000, func(row value.Tuple, label value.Value) {
		if err := cs.Append(row, label); err != nil {
			panic(err) // every attribute is INT, and so is every value
		}
	})
	return cs
}

// TestRows streams n test rows (attributes plus the true label column)
// from the same distribution as the training partition.
func (s *Spec) TestRows(n int, emit func(value.Tuple)) {
	s.generate(n, 2000, func(row value.Tuple, label value.Value) {
		full := make(value.Tuple, 0, len(row)+1)
		full = append(full, row...)
		full = append(full, label)
		emit(full)
	})
}

// AttrNames lists the attribute column names.
func (s *Spec) AttrNames() []string {
	out := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		out[i] = a.Name
	}
	return out
}

// attrs builds n attributes named a0..a(n-1) with the given domain
// cards cycling over cards.
func attrs(n int, cards ...int) []Attr {
	out := make([]Attr, n)
	for i := range out {
		out[i] = Attr{Name: fmt.Sprintf("a%d", i), Card: cards[i%len(cards)]}
	}
	return out
}

// Table2 returns the ten data-set specs of the paper's Table 2.
func Table2() []*Spec {
	return []*Spec{
		{Name: "Anneal-U", TrainRows: 598, PaperTestMillions: 1.83, Classes: 6, Clusters: 6,
			Attrs: attrs(18, 6, 4, 8, 5), Style: StyleNumeric, Noise: 0.02, seedBase: 100},
		{Name: "Balance-Scale", TrainRows: 416, PaperTestMillions: 1.28, Classes: 3, Clusters: 5,
			Attrs: attrs(4, 5), Style: StyleNumeric, Noise: 0.02, seedBase: 200},
		{Name: "Chess", TrainRows: 2130, PaperTestMillions: 1.63, Classes: 2, Clusters: 5,
			Attrs: attrs(20, 2, 2, 3), Style: StyleCategorical, Noise: 0.02, seedBase: 300},
		{Name: "Diabetes", TrainRows: 512, PaperTestMillions: 1.57, Classes: 2, Clusters: 5,
			Attrs: attrs(8, 8, 6), Style: StyleNumeric, Noise: 0.05, seedBase: 400},
		{Name: "Hypothyroid", TrainRows: 1339, PaperTestMillions: 1.78, Classes: 2, Clusters: 5,
			Attrs: attrs(16, 2, 3, 6), Style: StyleCategorical, Noise: 0.02, seedBase: 500},
		{Name: "Letter", TrainRows: 15000, PaperTestMillions: 1.28, Classes: 26, Clusters: 26,
			Attrs: attrs(16, 16), Style: StyleNumeric, Noise: 0.02, seedBase: 600},
		{Name: "Parity5+5", TrainRows: 100, PaperTestMillions: 1.04, Classes: 2, Clusters: 5,
			Attrs: attrs(10, 2), Style: StyleCategorical, Noise: 0, seedBase: 700},
		{Name: "Shuttle", TrainRows: 43500, PaperTestMillions: 1.85, Classes: 7, Clusters: 7,
			Attrs: attrs(9, 12, 8), Style: StyleNumeric, Noise: 0.01, seedBase: 800},
		{Name: "Vehicle", TrainRows: 564, PaperTestMillions: 1.73, Classes: 4, Clusters: 5,
			Attrs: attrs(18, 6, 8), Style: StyleNumeric, Noise: 0.05, seedBase: 900},
		{Name: "Kdd-cup-99", TrainRows: 100000, PaperTestMillions: 4.72, Classes: 23, Clusters: 23,
			Attrs: attrs(24, 10, 8, 4, 16), Style: StyleNumeric, Noise: 0.01, seedBase: 1000},
	}
}

// ByName finds a Table 2 spec (case-insensitive), or nil.
func ByName(name string) *Spec {
	for _, s := range Table2() {
		if shortName(s.Name) == shortName(name) {
			return s
		}
	}
	return nil
}
