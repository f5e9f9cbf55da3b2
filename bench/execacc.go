package main

// Executor accounting for the traced passes: the operator self times
// and I/O counts of direct Prepared.Execute calls, read from the
// engine's own Result.Analyze.

import (
	"strings"
	"time"

	"minequery"
)

// execAcc sums executor actuals over the direct executions of a pass.
type execAcc struct {
	n                          int
	scan, filter, predict, agg time.Duration
	tuples, pages, rowsOut     int64
	costUnits                  float64
	predictIn                  int64 // rows entering prediction joins
	planChanged                int
	columnar                   int   // executions that ran on the column-group sidecar
	colRows, termEvals         int64 // columnar: rows scanned, predicate-term evaluations
}

// add folds one execution in, splitting the report's inclusive operator
// times into self times by operator kind.
func (a *execAcc) add(res *minequery.Result) {
	a.n++
	a.tuples += res.Stats.TupleReads
	a.pages += res.Stats.SeqPageReads + res.Stats.RandPageReads
	a.costUnits += res.Stats.CostUnits
	a.rowsOut += int64(len(res.Rows))
	if res.PlanChanged {
		a.planChanged++
	}
	rep := res.Analyze
	if rep == nil {
		return
	}
	if res.StorageFormat == "columnar" {
		a.columnar++
		a.colRows += res.Stats.TupleReads
		for _, t := range rep.Terms {
			a.termEvals += t.Evaluated
		}
	}
	for i, op := range rep.Ops {
		self := op.Time - childTime(rep.Ops, i)
		if self < 0 {
			self = 0
		}
		switch {
		case strings.HasPrefix(op.Op, "SeqScan"), strings.HasPrefix(op.Op, "IndexSeek"),
			strings.HasPrefix(op.Op, "IndexUnion"), strings.HasPrefix(op.Op, "ConstantScan"):
			a.scan += self
		case strings.HasPrefix(op.Op, "Filter"):
			a.filter += self
		case strings.HasPrefix(op.Op, "PredictionJoin"):
			a.predict += self
			a.predictIn += childRows(rep.Ops, i)
		case strings.HasPrefix(op.Op, "HashAgg"):
			a.agg += self
		}
	}
}

// children lists the direct children of ops[i]: Ops is a pre-order walk
// with depths, so they are the following entries one level deeper.
func children(ops []minequery.OpActuals, i int) []int {
	var out []int
	for j := i + 1; j < len(ops) && ops[j].Depth > ops[i].Depth; j++ {
		if ops[j].Depth == ops[i].Depth+1 {
			out = append(out, j)
		}
	}
	return out
}

// childTime is the inclusive time of ops[i]'s children. An operator
// that reports no time of its own (the partial aggregate, fused into
// its consumer) is looked through to its children.
func childTime(ops []minequery.OpActuals, i int) time.Duration {
	var sum time.Duration
	for _, c := range children(ops, i) {
		if ops[c].Time > 0 {
			sum += ops[c].Time
		} else {
			sum += childTime(ops, c)
		}
	}
	return sum
}

func childRows(ops []minequery.OpActuals, i int) int64 {
	var sum int64
	for _, c := range children(ops, i) {
		sum += ops[c].Rows
	}
	return sum
}

// report writes the pass's exec.* values.
func (a *execAcc) report(out map[string]float64) {
	if a.n == 0 {
		return
	}
	n := float64(a.n)
	out["exec.scan_self_us"] = us(a.scan) / n
	out["exec.filter_self_us"] = us(a.filter) / n
	out["exec.predict_self_us"] = us(a.predict) / n
	out["exec.agg_self_us"] = us(a.agg) / n
	out["exec.tuples_read_per_op"] = float64(a.tuples) / n
	out["exec.pages_read_per_op"] = float64(a.pages) / n
	out["exec.rows_returned_per_op"] = float64(a.rowsOut) / n
	out["exec.cost_units_per_op"] = a.costUnits / n
	out["opt.plan_changed_ratio"] = float64(a.planChanged) / n
	if a.tuples > 0 {
		out["exec.model_calls_per_row"] = float64(a.predictIn) / float64(a.tuples)
	}
}

// rejectCounts reads, from an execution that ran with rejection
// attribution (WithAnalyze), the rows the envelope rejected and all rows
// the scan-level filter rejected.
func rejectCounts(res *minequery.Result) (env, all int64) {
	if res.Analyze == nil {
		return 0, 0
	}
	for _, op := range res.Analyze.Ops {
		if op.HasAttribution {
			env += op.EnvRejected
			all += op.EnvRejected + op.ResidRejected
		}
	}
	return env, all
}
