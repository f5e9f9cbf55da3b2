package main

// Output checking shared by the workloads: rows are compared as
// multisets of canonical strings, and a workload's checksum folds the
// canonical rows it verified, so two commits given the same seed print
// the same checksum exactly when they return the same answers.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"minequery"
)

func canonFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// canonTuples renders engine rows canonically, sorted.
func canonTuples(rows []minequery.Tuple) []string {
	out := make([]string, len(rows))
	var b strings.Builder
	for i, row := range rows {
		b.Reset()
		for j, v := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			switch v.Kind() {
			case minequery.KindNull:
				b.WriteString("null")
			case minequery.KindInt:
				b.WriteString(canonFloat(float64(v.AsInt())))
			case minequery.KindFloat:
				b.WriteString(canonFloat(v.AsFloat()))
			case minequery.KindBool:
				b.WriteString(strconv.FormatBool(v.AsBool()))
			default:
				b.WriteString(v.AsString())
			}
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// canonJSONRows renders rows decoded from a wire answer (UseNumber) the
// same way canonTuples renders engine rows.
func canonJSONRows(rows [][]any) ([]string, error) {
	out := make([]string, len(rows))
	var b strings.Builder
	for i, row := range rows {
		b.Reset()
		for j, c := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			switch x := c.(type) {
			case nil:
				b.WriteString("null")
			case json.Number:
				f, err := x.Float64()
				if err != nil {
					return nil, fmt.Errorf("row %d: bad number %q", i, x)
				}
				b.WriteString(canonFloat(f))
			case bool:
				b.WriteString(strconv.FormatBool(x))
			case string:
				b.WriteString(x)
			default:
				return nil, fmt.Errorf("row %d: unexpected cell type %T", i, c)
			}
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out, nil
}

// sameRows reports the first difference between two sorted canonical
// row lists.
func sameRows(what string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %d is %q, oracle has %q", what, i, got[i], want[i])
		}
	}
	return nil
}

// checksum folds verified answers into one seed-determined number.
type checksum struct{ h uint64 }

func (c *checksum) add(rows []string) {
	h := fnv.New64a()
	var seed [8]byte
	for i := range seed {
		seed[i] = byte(c.h >> (8 * i))
	}
	_, _ = h.Write(seed[:])
	for _, r := range rows {
		_, _ = h.Write([]byte(r))
		_, _ = h.Write([]byte{'\n'})
	}
	c.h = h.Sum64()
}
