package core

import (
	"container/heap"
	"math"
)

// workItem pairs a region with its heap priority.
type workItem struct {
	r *region
	// mass is the probability mass the region covers under the grid's
	// generative model (see regionMass).
	mass float64
}

// regionHeap orders the work list heaviest-region-first. The emitted
// envelope is everything not proven MUST-LOSE, and the metric that
// matters (envelope selectivity against the stored data) only improves
// when *populated* regions are pruned — so the expansion budget goes to
// the regions covering the most probability mass. Empty corners of the
// attribute space can safely stay ambiguous: covering them costs no
// selectivity.
type regionHeap []workItem

func (h regionHeap) Len() int            { return len(h) }
func (h regionHeap) Less(i, j int) bool  { return h[i].mass > h[j].mass }
func (h regionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *regionHeap) Push(x interface{}) { *h = append(*h, x.(workItem)) }
func (h *regionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	out := old[n-1]
	*h = old[:n-1]
	return out
}

// Options tunes envelope derivation.
type Options struct {
	// MaxExpansions bounds the number of tree nodes the top-down
	// algorithm expands (Algorithm 1's Threshold input). Default 2048.
	MaxExpansions int
	// Bounds picks the bound test (default BoundsRatio; BoundsSimple is
	// the paper's first formulation, kept for ablation).
	Bounds BoundsKind
	// MaxDisjuncts caps the emitted envelope's disjunct count
	// (Section 4.2 thresholding). When the merged region set is larger,
	// regions are greedily coalesced into their bounding boxes. Default
	// 64; <=0 means unlimited.
	MaxDisjuncts int
	// DisableShrink turns off the Shrink step (for ablation only).
	DisableShrink bool
}

// fill applies defaults.
func (o *Options) fill() {
	if o.MaxExpansions <= 0 {
		o.MaxExpansions = 2048
	}
	if o.MaxDisjuncts == 0 {
		o.MaxDisjuncts = 64
	}
}

// DefaultOptions returns the standard derivation configuration.
func DefaultOptions() Options {
	var o Options
	o.fill()
	return o
}

// TopDownEnvelope runs Algorithm 1 (UpperEnvelope(c_k)) over a grid for
// the class at index k, returning the covering regions: every grid cell
// whose predicted class is k is contained in some returned region. The
// trace, if non-nil, receives one entry per processed region (used by
// tests reproducing the paper's Figure 2 walk-through).
func TopDownEnvelope(g *Grid, k int, opts Options, trace *[]TraceEntry) []*region {
	opts.fill()
	full := fullRegion(g)
	work := &regionHeap{workItem{r: full, mass: regionMass(g, full)}}
	var keep []*region
	var pruned []*region
	expansions := 0
	for work.Len() > 0 {
		r := heap.Pop(work).(workItem).r
		if r.empty() {
			continue
		}
		st := classify(g, r, k, opts.Bounds)
		if trace != nil {
			*trace = append(*trace, TraceEntry{Region: r.String(), Status: st.String()})
		}
		switch st {
		case statusMustLose:
			pruned = append(pruned, r)
			continue
		case statusMustWin:
			keep = append(keep, r)
			continue
		}
		if expansions >= opts.MaxExpansions || r.cells() == 1 {
			// Budget exhausted or indivisible: keep the ambiguous region
			// (sound: only MUST-LOSE regions may be dropped).
			keep = append(keep, r)
			continue
		}
		expansions++
		if !opts.DisableShrink {
			shrink(g, r, k, opts.Bounds, &pruned)
			if r.empty() {
				continue
			}
			// Re-check after shrinking: the region may have resolved.
			st = classify(g, r, k, opts.Bounds)
			if trace != nil {
				*trace = append(*trace, TraceEntry{Region: r.String(), Status: st.String(), AfterShrink: true})
			}
			if st == statusMustLose {
				pruned = append(pruned, r)
				continue
			}
			if st == statusMustWin {
				keep = append(keep, r)
				continue
			}
			if r.cells() == 1 {
				keep = append(keep, r)
				continue
			}
		}
		r1, r2, ok := split(g, r, k)
		if !ok {
			keep = append(keep, r)
			continue
		}
		heap.Push(work, workItem{r: r1, mass: regionMass(g, r1)})
		heap.Push(work, workItem{r: r2, mass: regionMass(g, r2)})
	}
	keep = mergeRegions(g, keep)
	if opts.MaxDisjuncts > 0 && len(keep) > opts.MaxDisjuncts {
		// Two sound representations compete under the disjunct budget:
		// coalescing the kept cover (bounding boxes of nearby regions)
		// versus the complement of the heaviest pruned regions. Keep the
		// one covering less probability mass.
		direct := coalesce(g, keep, opts.MaxDisjuncts)
		comp := complementCover(g, pruned, opts.MaxDisjuncts)
		if coverMass(g, comp) < coverMass(g, direct) {
			keep = comp
		} else {
			keep = direct
		}
	}
	return keep
}

// TraceEntry records one step of the top-down algorithm.
type TraceEntry struct {
	Region      string
	Status      string
	AfterShrink bool
}

// split partitions the region along the dimension and position with the
// lowest average class entropy, mirroring binary splits in decision-tree
// construction but driven by the grid's probability masses instead of
// explicit per-cell counts (Section 3.2.2, Split).
func split(g *Grid, r *region, k int) (*region, *region, bool) {
	bestDim, bestPos := -1, -1
	bestScore := math.Inf(1)
	// Scratch buffers reused across dimensions: per-member (target,
	// rest) mass pairs and running prefix masses. The entropy heuristic
	// only distinguishes the target class from the rest, so masses
	// collapse to two numbers per member.
	var pos1, rest1 []float64
	for d := range g.Dims {
		s := r.sel[d]
		if len(s) < 2 {
			continue
		}
		order := splitOrder(g, r, d, k)
		if cap(pos1) < len(order) {
			pos1 = make([]float64, len(order))
			rest1 = make([]float64, len(order))
		}
		pm, rm := pos1[:len(order)], rest1[:len(order)]
		var totPos, totRest float64
		dim := &g.Dims[d]
		for i, l := range order {
			var p, rst float64
			for c := range g.Classes {
				mass := math.Exp(g.Base[c] + dim.ScoreHi[l][c])
				if c == k {
					p += mass
				} else {
					rst += mass
				}
			}
			pm[i], rm[i] = p, rst
			totPos += p
			totRest += rst
		}
		var leftPos, leftRest float64
		for pos := 1; pos < len(order); pos++ {
			leftPos += pm[pos-1]
			leftRest += rm[pos-1]
			score := twoClassEntropy(leftPos, leftRest) +
				twoClassEntropy(totPos-leftPos, totRest-leftRest)
			if score < bestScore {
				bestScore, bestDim, bestPos = score, d, pos
			}
		}
	}
	if bestDim < 0 {
		return nil, nil, false
	}
	order := splitOrder(g, r, bestDim, k)
	r1, r2 := r.clone(), r.clone()
	r1.sel[bestDim] = sortedCopy(order[:bestPos])
	r2.sel[bestDim] = sortedCopy(order[bestPos:])
	return r1, r2, true
}

// splitOrder returns the member indices of dim d in split-candidate
// order: natural order for ordered dims (splits stay contiguous); for
// unordered dims, sorted by the target class's score so a single cut
// separates favourable members from unfavourable ones.
func splitOrder(g *Grid, r *region, d, k int) []int {
	s := r.sel[d]
	if g.Dims[d].Ordered {
		return s
	}
	order := append([]int(nil), s...)
	dim := &g.Dims[d]
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && dim.ScoreHi[order[j]][k] < dim.ScoreHi[order[j-1]][k]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// twoClassEntropy returns n·H(p) for the (target, rest) mass pair — the
// weighted binary entropy the split heuristic minimizes.
func twoClassEntropy(pos, rest float64) float64 {
	total := pos + rest
	if total <= 0 {
		return 0
	}
	return total * binaryEntropy(pos/total)
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

func sortedCopy(s []int) []int {
	out := append([]int(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
